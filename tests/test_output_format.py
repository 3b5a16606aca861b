"""Golden bytes of every output file: one tiny fixed input per writer.

The format: a header row, CRLF line ends, floats at 17 significant digits
(``.17g``), other cells through ``str()``; JSON with ``indent=2``, sorted
keys and a trailing newline.  The other tests compare a run with itself;
these pin the bytes against literals.  The vectorized float formatter
``_float_cells`` is held to Python's ``'%.17g'`` cell by cell, and the
command line's ``map_on_cores``, alone and writing density files, to the
serial loop's results, bytes and errors.
"""

import errno
import json
import math
import os
import sys
import tempfile
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wealthgas import __version__, cli
from wealthgas import grid as grid_module
from wealthgas.cli import map_on_cores
from wealthgas.agents import (
    AgentEnsemble,
    ExponentialFit,
    HistogramEstimate,
    init_ensemble,
    run_transactions,
    write_ensemble_csv,
    write_fit_json,
    write_histogram_csv,
)
from wealthgas.evolution import IterationReport, write_reports_csv
from wealthgas.evolution import iterate_operator
from wealthgas.families import (
    PARAMETER_LATTICE,
    ContractionResult,
    FamilyKind,
    FamilySpec,
    family_mean,
    sample_family,
    triangle_density,
)
from wealthgas.grid import (
    DENSITY_CSV_HEADER,
    Density,
    Grid,
    _float_cells,
    _text_cells,
    default_grid,
    read_density_csv,
    write_csv,
    write_density_csv,
)
from wealthgas.verify import PropertyCheck

VERSION = __version__.encode()


def test_write_csv_formats_numpy_scalars_like_python_ones(tmp_path):
    columns = [[np.float64(0.1)], [0.1], [np.int64(7)], [""]]
    write_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), columns)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c,d\r\n0.10000000000000001,0.10000000000000001,7,\r\n"
    )


def test_write_csv_header_only(tmp_path):
    write_csv(tmp_path / "h.csv", ("a", "b"), [[], []])
    assert (tmp_path / "h.csv").read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("columns, error", [
    ([[1.0]], ValueError),
    ([[1.0], [2.0], [3.0]], ValueError),
    ([[1.0], [2.0, 3.0]], ValueError),
    ([[1.0, 2.0], [1.0]], ValueError),
    ([[1.0, 1.0], [2.0, "2"]], TypeError),
], ids=["first_short", "first_long", "later_long", "later_short", "str_in_float_column"])
def test_write_csv_rejects_rows_unlike_the_first(tmp_path, columns, error):
    # Too few or too many columns for the header, a later column longer or
    # shorter than the first, or a cell whose type differs from its column's
    # first cell: each raises before the file is opened.
    path = tmp_path / "bad.csv"
    with pytest.raises(error):
        write_csv(path, ("a", "b"), columns)
    assert not path.exists()


def _reference_csv(header, rows) -> bytes:
    """The per-cell formatter, over rows, that ``write_csv``'s bulk format must reproduce."""
    lines = [",".join(header)]
    lines += [",".join([f"{c:.17g}" if isinstance(c, float) else str(c) for c in row]) for row in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e308, np.inf, -np.inf, np.nan)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_COLUMNS = {
    "float": _floats,
    "float64": _floats.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "str": st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"')),
}


@st.composite
def _homogeneous_table(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=5))
    row = st.tuples(*(_COLUMNS[k] for k in kinds))
    return tuple(f"c{i}" for i in range(len(kinds))), draw(st.lists(row, max_size=8))


@settings(max_examples=300, deadline=None, database=None)
@given(_homogeneous_table())
def test_write_csv_matches_the_per_cell_formatter(tmp_path_factory, table):
    header, rows = table
    columns = [[row[j] for row in rows] for j in range(len(header))]
    path = tmp_path_factory.mktemp("eq") / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _reference_csv(header, rows)


def test_density_csv_bytes(tmp_path):
    grid = Grid(16, 15.0)
    write_density_csv(tmp_path / "d.csv", Density(grid, grid.nodes / 3))
    assert (tmp_path / "d.csv").read_bytes() == (
        b"x,density\r\n0,0\r\n1,0.33333333333333331\r\n2,0.66666666666666663\r\n3,1\r\n"
        b"4,1.3333333333333333\r\n5,1.6666666666666667\r\n6,2\r\n7,2.3333333333333335\r\n"
        b"8,2.6666666666666665\r\n9,3\r\n10,3.3333333333333335\r\n11,3.6666666666666665\r\n"
        b"12,4\r\n13,4.333333333333333\r\n14,4.666666666666667\r\n15,5\r\n"
    )


def _densities(count):
    grid = Grid(64, 10.0)
    rng = np.random.default_rng(count)
    return [Density(grid, rng.random(grid.n_points)) for _ in range(count)]


def _serial_bytes(tmp_path, densities) -> list:
    """The files of the one-process loop the writer must reproduce."""
    serial = tmp_path / "serial"
    serial.mkdir()
    for k, y in enumerate(densities):
        write_density_csv(serial / f"{k}.csv", y)
    return [(serial / f"{k}.csv").read_bytes() for k in range(len(densities))]


def _write_all(tmp_path, densities) -> list:
    out = tmp_path / "out"
    out.mkdir()
    jobs = [(out / f"{k}.csv", y) for k, y in enumerate(densities)]
    map_on_cores(lambda job: write_density_csv(*job), jobs)
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{k}.csv" for k in range(len(densities)))
    return [(out / f"{k}.csv").read_bytes() for k in range(len(densities))]


def _count_calls(monkeypatch, fail_from=None, module=os, name="fork") -> list:
    """Record each call of ``module.name``; the call at index ``fail_from`` and later ones raise EAGAIN."""
    calls, call = [], getattr(module, name)

    def counted():
        calls.append(None)
        if fail_from is not None and len(calls) > fail_from:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return call()

    monkeypatch.setattr(module, name, counted)
    return calls


needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="the writer forks only on Linux")


@needs_fork
@pytest.mark.parametrize("count", [0, 1, 2, 3, 11])
def test_density_csvs_match_the_serial_writer(tmp_path, monkeypatch, count):
    # three usable cores: 2 and 3+ files take 2 and 3 processes, whatever this machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = _count_calls(monkeypatch)
    densities = _densities(count)
    assert _write_all(tmp_path, densities) == _serial_bytes(tmp_path, densities)
    assert len(forks) == max(0, min(count, 3) - 1)


@needs_fork
@pytest.mark.parametrize("fail_from", [0, 1], ids=["first_fork", "second_fork"])
def test_density_csvs_write_an_unforked_share_in_process(tmp_path, monkeypatch, fail_from):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = _count_calls(monkeypatch, fail_from)
    densities = _densities(11)
    assert _write_all(tmp_path, densities) == _serial_bytes(tmp_path, densities)
    assert len(forks) == fail_from + 1


def test_density_csvs_never_fork_beside_a_live_thread(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called while another Python thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        densities = _densities(11)
        assert _write_all(tmp_path, densities) == _serial_bytes(tmp_path, densities)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


@needs_fork
@pytest.mark.parametrize("steps", [(1,), (2,), (1, 2)], ids=["child_share", "parent_share", "both_shares"])
def test_iterate_write_failure_reads_as_the_serial_one(tmp_path, monkeypatch, capsys, steps):
    # with two processes the child writes the odd steps and the parent the even ones
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def failing_run(name):
        out = tmp_path / name
        for step in steps:
            (out / f"density_step_{step:03d}.csv").mkdir(parents=True)
        assert cli.main(["iterate", "--n-points", "257", "--steps", "3", "--out", str(out)]) == 2
        return capsys.readouterr().err.replace(str(out), "OUT")

    forks = _count_calls(monkeypatch)
    forked = failing_run("forked")
    monkeypatch.setattr(threading, "active_count", lambda: 2)  # now one process writes every file
    serial = failing_run("serial")
    assert len(forks) == 1
    assert forked == serial == f"error: [Errno 21] Is a directory: 'OUT/density_step_{steps[0]:03d}.csv'\n"


def _bulky(x):
    """A result whose pickle outgrows a 64 KiB pipe buffer once a share holds a few."""
    return [x] * 30_000


@needs_fork
@pytest.mark.parametrize("count", [0, 1, 2, 3, 11])
def test_map_on_cores_matches_the_serial_loop(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = _count_calls(monkeypatch)
    assert map_on_cores(_bulky, list(range(count))) == [_bulky(x) for x in range(count)]
    assert len(forks) == max(0, min(count, 3) - 1)


@needs_fork
@pytest.mark.parametrize("failing, fail_from", [("fork", 0), ("fork", 1), ("TemporaryFile", 1)],
                         ids=["first_fork", "second_fork", "second_file"])
def test_map_on_cores_runs_an_unforked_share_in_process(monkeypatch, failing, fail_from):
    # after a failed fork or temporary file the parent reaps the children forked so far, then
    # runs every item in order, the unforked shares among them, as the serial loop does
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    files = _count_calls(monkeypatch, fail_from if failing == "TemporaryFile" else None,
                         tempfile, "TemporaryFile")
    forks = _count_calls(monkeypatch, fail_from if failing == "fork" else None)
    calls = []

    def fn(x):
        calls.append(x)
        return _bulky(x)

    assert map_on_cores(fn, list(range(11))) == [_bulky(x) for x in range(11)]
    assert (len(files), len(forks)) == ((fail_from + 1, fail_from + 1) if failing == "fork" else (2, 1))
    assert calls == list(range(11))


def test_map_on_cores_never_forks_beside_a_live_thread(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called while another Python thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert map_on_cores(_bulky, list(range(11))) == [_bulky(x) for x in range(11)]
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


@needs_fork
@pytest.mark.parametrize("bad", [{1}, {2}, {1, 2}, {2, 3}], ids=["child", "parent", "both", "parent_first"])
def test_map_on_cores_raises_the_serial_loops_first_error(monkeypatch, bad):
    # with two processes the child takes the odd items and the parent the even ones
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _count_calls(monkeypatch)

    def fn(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {min(bad)}$"):
        map_on_cores(fn, list(range(5)))
    assert len(forks) == 1


@needs_fork
def test_families_forked_reads_as_one_core(tmp_path, monkeypatch, capsys):
    def run(cores, name):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        out = tmp_path / name
        code = cli.main(["families", "--n-points", "1025", "--out", str(out)])
        return code, capsys.readouterr().err.replace(str(out), "OUT"), out

    forks = _count_calls(monkeypatch)
    forked, serial = run({0, 1}, "forked"), run({0}, "serial")
    assert len(forks) == 1
    assert forked[:2] == serial[:2] == (0, "")
    for name in ("families.csv", "manifest.json"):
        assert (forked[2] / name).read_bytes() == (serial[2] / name).read_bytes()

    # one failing spec in each share: the parent's (index 4) and the child's (index 3)
    bad = {PARAMETER_LATTICE[3], PARAMETER_LATTICE[4]}
    check = cli.contraction_check

    def failing_check(spec, grid):
        if spec in bad:
            raise ValueError(f"no check for {spec.kind.value} alpha={spec.alpha} n={spec.n}")
        return check(spec, grid)

    monkeypatch.setattr(cli, "contraction_check", failing_check)
    forked, serial = run({0, 1}, "forked_bad"), run({0}, "serial_bad")
    assert len(forks) == 2
    assert forked[:2] == serial[:2] == (2, "error: no check for gamma alpha=0.5 n=5\n")


@st.composite
def _density(draw):
    n_points = draw(st.integers(16, 200))
    grid = Grid(n_points, draw(st.sampled_from([1e-160, 17.0, 1e160])))
    value = st.one_of(st.sampled_from([0.0, 5e-324, 1e308]), st.floats(0.0, 1e308))
    return Density(grid, draw(st.lists(value, min_size=n_points, max_size=n_points)))


@settings(max_examples=100, deadline=None, database=None)
@given(_density())
def test_density_csv_matches_the_per_cell_formatter(tmp_path_factory, y):
    path = tmp_path_factory.mktemp("den") / "d.csv"
    write_density_csv(path, y)
    rows = zip(y.grid.nodes.tolist(), y.values.tolist())
    assert path.read_bytes() == _reference_csv(DENSITY_CSV_HEADER, rows)
    back = read_density_csv(path)
    assert back.grid == y.grid
    assert np.array_equal(back.values, y.values)


def _assert_cells_match_python(values):
    """``_float_cells`` must give ``b'%.17g' % v`` for every value, cell by cell."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), 1 << 16):
        block = values[start:start + (1 << 16)]
        cells = _float_cells(block)
        lines = np.concatenate([cells, np.full((len(block), 1), ord("\n"), np.uint8)], axis=1)
        got = lines.tobytes().translate(None, b"\0").split(b"\n")[:-1]
        want = [b"%.17g" % v for v in block.tolist()]
        bad = [(v, g, w) for v, g, w in zip(block.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, f"{len(bad)} cells differ from %.17g, first {bad[:3]}"


def test_float_cells_match_python_on_random_bit_patterns():
    bits = np.frombuffer(np.random.default_rng(20261019).bytes(8 * 10**6), np.uint64)
    # every biased exponent, subnormals (0) and inf/nan (2047) included, with both signs
    assert np.unique(bits >> 52).size == 4096
    _assert_cells_match_python(bits.view(np.float64))


def test_float_cells_match_python_at_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_cells_match_python(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


def test_float_cells_match_python_at_the_g_switch_points():
    # 300 doubles each side of the points where %g turns from d.ddde-05 to 0.0001 and 1e+16 to
    # 10000000000000000, and where the 17 digits run out
    steps = np.arange(-300, 301)
    near = [(np.float64(c).view(np.int64) + steps).view(np.float64) for c in (1e-5, 1e-4, 1e16, 1e17)]
    _assert_cells_match_python(np.concatenate(near))


def test_float_cells_match_python_on_integers():
    rng = np.random.default_rng(7)
    big = [2.0**53 + k for k in range(-8, 9)] + [10.0**k + d for k in range(1, 18) for d in (-1, 0, 1)]
    _assert_cells_match_python(np.concatenate([
        np.arange(1.0, 100_001.0), big, [15.0, 155.0, 1e17],
        rng.integers(1, 10**17, 100_000).astype(np.float64),
    ]))


def test_float_cells_match_python_on_exact_halfway_cases():
    # x = m / 2**(17 - e) with m odd and 10**e <= x < 10**(e+1): x * 10**(16 - e) = m * 5**(16 - e) / 2,
    # a tie that %.17g breaks to even
    rng = np.random.default_rng(11)
    ties = []
    for e in range(-8, 16):
        low, high = 2**17 * Fraction(5) ** e, min(10 * 2**17 * Fraction(5) ** e, Fraction(2**53))
        odd = rng.integers(math.ceil(low) // 2, math.ceil(high) // 2, 200) * 2 + 1
        ties += [math.ldexp(int(m), e - 17) for m in odd if low <= m < high]
    for x in ties:
        e = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2, x
    assert len(ties) > 4000
    _assert_cells_match_python(ties)


def test_float_cells_match_python_on_special_values():
    _assert_cells_match_python([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])


def _text_rows(cells) -> list[bytes]:
    return [row.tobytes().replace(b"\0", b"") for row in cells]


_INT_EDGES = (0, 9, 10, 9999, 10000, 10**8, 10**16 - 1, 10**16, 2**63 - 1)
_ints = st.one_of(st.sampled_from(_INT_EDGES + tuple(-v for v in _INT_EDGES)),
                  st.integers(-(2**63) + 1, 2**63 - 1))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(_ints, min_size=1, max_size=40), _ints, st.integers(1, 60),
       st.integers(-(10**17), 10**17).filter(bool))
def test_text_cells_of_integer_columns_match_str(values, start, length, step):
    # a range within ±(10^16 - 1) takes the digit layout, an integer array str(): cell for cell the same
    column = np.array(values, np.int64)
    assert _text_rows(_text_cells(column)) == [str(v).encode() for v in values]
    ids = range(start, start + length * step, step)
    assert _text_rows(_text_cells(ids)) == [str(v).encode() for v in ids]


def test_text_cells_of_the_id_column_and_other_integer_columns():
    assert _text_rows(_text_cells(range(100_000))) == [str(v).encode() for v in range(100_000)]
    edges = np.array([2**64 - 1, 10**16 - 1, 0], np.uint64)
    assert _text_rows(_text_cells(edges)) == [b"18446744073709551615", b"9999999999999999", b"0"]
    assert _text_rows(_text_cells(np.array([-128, 0, 127], np.int8))) == [b"-128", b"0", b"127"]
    assert _text_rows(_text_cells(range(-(2**63) - 1, -(2**63) + 2))) == [
        b"-9223372036854775809", b"-9223372036854775808", b"-9223372036854775807"]
    assert _text_rows(_text_cells(np.array([True, False]))) == [b"True", b"False"]


def test_iterated_densities_and_an_ensemble_never_need_the_fallback(tmp_path, monkeypatch):
    undecided = []
    python_cells = grid_module._python_cells

    def counted(values):
        undecided.extend(values.tolist())
        return python_cells(values)

    monkeypatch.setattr(grid_module, "_python_cells", counted)
    gamma = FamilySpec(FamilyKind.GAMMA, alpha=1.0, n=3)
    starts = [triangle_density(Grid(32769, 40.0)),
              sample_family(gamma, default_grid(family_mean(gamma), 32769))]
    for y0 in starts:
        densities, _ = iterate_operator(y0, 10)
        for k, y in enumerate(densities):
            write_density_csv(tmp_path / f"{k}.csv", y)
        assert (tmp_path / f"{k}.csv").read_bytes() == _reference_csv(
            DENSITY_CSV_HEADER, zip(y.grid.nodes.tolist(), y.values.tolist()))
    ens = run_transactions(init_ensemble(100_000, equal=1.0, seed=3), 10**6)
    write_ensemble_csv(tmp_path / "e.csv", ens)
    assert (tmp_path / "e.csv").read_bytes() == _reference_csv(
        ("agent_id", "money"), enumerate(ens.money.tolist()))
    assert undecided == []


def test_reports_csv_bytes(tmp_path):
    reports = [
        IterationReport(1, 1.0, 0.1, 0.0, 1 / 3, 2.5e-17),
        IterationReport(12, 1.0000000000000002, 1.0, 1e-300, 0.25, 1e20),
    ]
    write_reports_csv(tmp_path / "r.csv", reports)
    assert (tmp_path / "r.csv").read_bytes() == (
        b"step,norm,mean,mass_defect,dist_to_target,step_delta\r\n"
        b"1,1,0.10000000000000001,0,0.33333333333333331,2.4999999999999999e-17\r\n"
        b"12,1.0000000000000002,1,1e-300,0.25,1e+20\r\n"
    )


def test_ensemble_histogram_and_fit_bytes(tmp_path):
    ens = AgentEnsemble(money=np.array([0.1, 2.0, 1e-300]), rng_seed=7, transactions_done=3)
    write_ensemble_csv(tmp_path / "e.csv", ens)
    assert (tmp_path / "e.csv").read_bytes() == (
        b"agent_id,money\r\n0,0.10000000000000001\r\n1,2\r\n2,1e-300\r\n"
    )
    hist = HistogramEstimate(bin_edges=np.linspace(0.0, 0.3, 4), densities=np.array([10 / 3, 0.0, 0.5]))
    write_histogram_csv(tmp_path / "h.csv", hist)
    assert (tmp_path / "h.csv").read_bytes() == (
        b"bin_left,bin_right,density\r\n"
        b"0,0.099999999999999992,3.3333333333333335\r\n"
        b"0.099999999999999992,0.19999999999999998,0\r\n"
        b"0.19999999999999998,0.29999999999999999,0.5\r\n"
    )
    write_fit_json(tmp_path / "f.json", ens, ExponentialFit(1 / 0.7, 0.1, 3))
    assert (tmp_path / "f.json").read_bytes() == (
        b'{\n  "beta_hat": 1.4285714285714286,\n  "ks_statistic": 0.1,\n  "money_drift": 0.0,\n'
        b'  "n_samples": 3,\n'
        b'  "seed": 7,\n  "transactions_done": 3\n}\n'
    )


def _fixed_contraction(spec, grid):
    moved = spec.kind is not FamilyKind.EXPONENTIAL
    return ContractionResult(
        d_before=0.5, d_after=0.1 if moved else 0.5, contracted=moved, oracle_l1_gap=1 / 3
    )


FAMILIES_HEADER = b"family,alpha,beta,n,eps,d_before,d_after,contracted,oracle_l1_gap\r\n"


@pytest.mark.parametrize(
    "args,row",
    [
        (["--family", "epsmix", "--alpha", "1", "--n", "2", "--eps", "0.25"],
         b"epsmix,1.0,,2,0.25,0.5,0.10000000000000001,true,0.33333333333333331\r\n"),
        (["--family", "exponential", "--alpha", "2"],
         b"exponential,2.0,,,,0.5,0.5,false,0.33333333333333331\r\n"),
    ],
)
def test_families_csv_bytes(tmp_path, monkeypatch, args, row):
    monkeypatch.setattr(cli, "contraction_check", _fixed_contraction)
    assert cli.main(["families", *args, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "families.csv").read_bytes() == FAMILIES_HEADER + row


def _manifest(subcommand: bytes, options: bytes) -> bytes:
    return (b'{\n  "options": {\n' + options + b'\n  },\n  "subcommand": "' + subcommand
            + b'",\n  "version": "' + VERSION + b'"\n}\n')


def test_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "contraction_check", _fixed_contraction)
    args = ["--family", "epsmix", "--alpha", "1", "--n", "2", "--eps", "0.25"]
    assert cli.main(["families", *args, "--out", "fam"]) == 0
    assert (tmp_path / "fam" / "manifest.json").read_bytes() == _manifest(
        b"families",
        b'    "alpha": 1.0,\n    "beta": null,\n    "eps": 0.25,\n'
        b'    "family": "epsmix",\n    "n": 2,\n    "n_points": 32769',
    )

    tri = ["--family", "triangle", "--steps", "1", "--n-points", "1025", "--stop-delta", "1e-9"]
    assert cli.main(["iterate", *tri, "--out", "tri"]) == 0
    assert (tmp_path / "tri" / "manifest.json").read_bytes() == _manifest(
        b"iterate",
        b'    "family": "triangle",\n    "mean": 1.0,\n    "n_points": 1025,\n'
        b'    "steps": 1,\n    "stop_delta": 1e-09,\n    "x_max": 40.0',
    )

    write_density_csv(tmp_path / "start.csv", triangle_density(Grid(1025, 40.0)))
    assert cli.main(["iterate", "--initial", "start.csv", "--steps", "1", "--out", "ini"]) == 0
    assert (tmp_path / "ini" / "manifest.json").read_bytes() == _manifest(
        b"iterate",
        b'    "initial": "start.csv",\n    "n_points": 1025,\n    "steps": 1,\n'
        b'    "stop_delta": null,\n    "x_max": 40.0',
    )

    sim = ["--agents", "3", "--transactions", "5", "--m0", "0.1", "--seed", "3"]
    assert cli.main(["simulate", *sim, "--out", "sim"]) == 0
    assert (tmp_path / "sim" / "manifest.json").read_bytes() == _manifest(
        b"simulate",
        b'    "agents": 3,\n    "bins": 200,\n    "m0": 0.1,\n    "m_max": 1.0000000000000002,\n'
        b'    "seed": 3,\n    "transactions": 5',
    )

    # a failing verify run still records how it ran
    failing = [PropertyCheck("lipschitz", 2.5, 2.0, "<=", False)]
    monkeypatch.setattr(cli, "run_property_suite", lambda settings: failing)
    assert cli.main(["verify", "--n-points", "64", "--out", "ver"]) == 1
    assert (tmp_path / "ver" / "manifest.json").read_bytes() == _manifest(
        b"verify", b'    "n_points": 64,\n    "seed": 20240901,\n    "x_max": 40.0'
    )


@pytest.mark.parametrize("kind", [k.value for k in FamilyKind])
def test_families_manifest_records_the_options_iterate_records(tmp_path, monkeypatch, capsys, kind):
    # each kind takes the options it uses, both commands record them alike and reject the others
    monkeypatch.setattr(cli, "contraction_check", _fixed_contraction)
    used = {"exponential": (), "gamma": ("n",), "mix": ("beta",), "epsmix": ("n", "eps")}[kind]
    values = {"alpha": "2", "beta": "0.5", "n": "3", "eps": "0.75"}
    opts = ["--family", kind] + [a for name in ("alpha", *used) for a in (f"--{name}", values[name])]
    assert cli.main(["families", *opts, "--out", str(tmp_path / "fam")]) == 0
    assert cli.main(["iterate", *opts, "--steps", "1", "--n-points", "1025",
                     "--out", str(tmp_path / "it")]) == 0
    fam = json.loads((tmp_path / "fam" / "manifest.json").read_text())["options"]
    it = json.loads((tmp_path / "it" / "manifest.json").read_text())["options"]
    fields = ("family", "alpha", "beta", "n", "eps")
    assert {k: fam[k] for k in fields} == {k: it[k] for k in fields}
    assert [k for k in fields[2:] if fam[k] is not None] == list(used)

    unused = [name for name in fields[2:] if name not in used]
    every = opts + [a for name in unused for a in (f"--{name}", values[name])]
    names = ", ".join(f"--{name}" for name in unused)
    verb = "does" if len(unused) == 1 else "do"
    for sub in (["families"], ["iterate", "--steps", "1", "--n-points", "1025"]):
        assert cli.main([*sub, *every, "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == f"error: {names} {verb} not apply to --family {kind}\n"
    assert not (tmp_path / "bad").exists()


def test_verify_report_bytes(tmp_path, monkeypatch):
    checks = [
        PropertyCheck("norm_squaring", 1e-17, 1e-12, "<=", True),
        PropertyCheck("lipschitz", 2.5, 2.0, "<=", False, "worst pair 3"),
    ]
    monkeypatch.setattr(cli, "run_property_suite", lambda settings: checks)
    assert cli.main(["verify", "--n-points", "64", "--out", str(tmp_path)]) == 1
    assert (tmp_path / "verify_report.json").read_bytes() == (
        b'{\n  "all_passed": false,\n  "properties": [\n'
        b'    {\n      "comparison": "<=",\n      "detail": "",\n      "measured": 1e-17,\n'
        b'      "name": "norm_squaring",\n      "pass": true,\n      "threshold": 1e-12\n    },\n'
        b'    {\n      "comparison": "<=",\n      "detail": "worst pair 3",\n      "measured": 2.5,\n'
        b'      "name": "lipschitz",\n      "pass": false,\n      "threshold": 2.0\n    }\n  ],\n'
        b'  "settings": {\n    "n_points": 64,\n    "n_random": 50,\n'
        b'    "seed": 20240901,\n    "x_max": 40.0\n  }\n}\n'
    )
