"""The package's public surface: ``__all__`` names only what the package holds."""

import wealthgas


def test_every_exported_name_resolves():
    missing = [name for name in wealthgas.__all__ if not hasattr(wealthgas, name)]
    assert missing == []
