"""The package's public surface: ``__all__`` names only what the package holds, and import stays light."""

import subprocess
import sys
from pathlib import Path

import wealthgas


def test_every_exported_name_resolves():
    missing = [name for name in wealthgas.__all__ if not hasattr(wealthgas, name)]
    assert missing == []


def _loads_numpy_polynomial(statement: str) -> bool:
    """Whether ``statement``, run in a fresh interpreter on this source tree, loads numpy.polynomial."""
    src = str(Path(wealthgas.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {statement}; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1] == "True"


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    assert not _loads_numpy_polynomial("import wealthgas.cli")


def test_a_mix_run_leaves_numpy_polynomial_unloaded(tmp_path):
    # the mix's 16-node Gauss-Legendre rule is written as constants: building it with leggauss
    # loads numpy.polynomial and runs an eigensolve, about 1.2 MB more resident memory
    args = ["families", "--family", "mix", "--n-points", "257", "--out", str(tmp_path)]
    assert not _loads_numpy_polynomial(f"from wealthgas.cli import main; main({args!r})")
    assert (tmp_path / "families.csv").exists()
