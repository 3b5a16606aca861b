"""The line counts of ``tools/census.py --lines``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code

# a comment line


def f(x):
    """Function docstring."""
    text = """a string that is
    not a docstring"""
    return (math.pi
            + x)


class C:
    """Class docstring."""

    y = 1
'''


def test_count_lines_by_the_stated_rule():
    # code: the import, def, text (2 lines), return (2 lines), class, y = 1
    assert census.count_lines(SOURCE) == (20, 8)


def test_lines_table_sums_the_modules(capsys):
    assert census.main(["--lines"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "physical", "code"]
    modules, total = rows[1:-1], rows[-1]
    assert [m[0] for m in modules] == [p.name for p in census.modules()]
    for name, physical, _ in modules:
        assert int(physical) == len((census.PACKAGE / name).read_text().splitlines())
    assert total == ["total", *(str(sum(int(m[k]) for m in modules)) for k in (1, 2))]
    assert 0 < int(total[2]) < int(total[1])
