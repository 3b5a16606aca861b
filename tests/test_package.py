"""The package's public surface: ``__all__`` names only what the package holds, and import stays light."""

import subprocess
import sys
from pathlib import Path

import wealthgas


def test_every_exported_name_resolves():
    missing = [name for name in wealthgas.__all__ if not hasattr(wealthgas, name)]
    assert missing == []


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # the mix's quadrature rule is built on first use: building it at import loads numpy.polynomial
    # and raises the resident memory of every run, the mix's or not, by about 1.3 MB
    src = str(Path(wealthgas.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import wealthgas.cli; print('numpy.polynomial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout == "False\n"
