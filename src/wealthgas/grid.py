"""Uniform grids and sampled wealth densities with trapezoid quadrature.

A density lives on the uniform grid x_i = i*h, i = 0..n-1, h = x_max/(n-1),
and integrals are composite trapezoid sums

    integral f ~= h*(f_0/2 + f_1 + ... + f_{n-2} + f_{n-1}/2).

The same weights are reused by the convolution kernel in ``evolution`` so
that the discrete conservation laws hold to machine precision.  The infinite
domain [0, inf) is truncated at x_max; the mass each operator step pushes
past x_max follows exactly from those laws, is reported as ``mass_defect``
and is never folded back into the density.

The module also owns every output file's format: ``write_csv``, whose float cells come from
``_float_cells``, an exact vectorized %.17g, and ``write_json``; and ``map_on_cores``,
which forks on Linux while one thread runs and reruns the serial loop if a share fails.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

DEFAULT_N_POINTS = 4097
DOMAIN_MEAN_MULTIPLE = 40.0


class GridMismatchError(ValueError):
    """Binary density operation attempted across two different grids."""


class DegenerateDensityError(ValueError):
    """Operation that needs positive mass received a zero-norm density."""


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [0, x_max] with n_points nodes.

    The node and weight arrays are built on first use and kept for the life
    of the grid: every access returns the same read-only array, so a caller
    that needs to modify one must copy it first.
    """

    n_points: int
    x_max: float

    @property
    def spacing(self) -> float:
        return self.x_max / (self.n_points - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The nodes x_i = i*h as one shared read-only array."""
        x = np.linspace(0.0, self.x_max, self.n_points)
        x.setflags(write=False)
        return x

    @functools.cached_property
    def trap_weights(self) -> np.ndarray:
        """The trapezoid weights h/2, h, ..., h, h/2 as one shared read-only array."""
        w = np.full(self.n_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        w.setflags(write=False)
        return w


def make_grid(n_points: int, x_max: float) -> Grid:
    """Build a uniform grid, rejecting discretizations too coarse to use."""
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    if not 0.0 < x_max < np.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    return Grid(int(n_points), float(x_max))


def default_grid(mean: float = 1.0, n_points: int = DEFAULT_N_POINTS) -> Grid:
    """Default grid for densities of a given mean: x_max = 40*mean.

    An exponential with that mean carries less than 1e-17 of its mass
    beyond the truncation point, far below every test tolerance.
    """
    return make_grid(n_points, DOMAIN_MEAN_MULTIPLE * mean)


@dataclass(frozen=True)
class Density:
    """Nonnegative sampled function on a Grid (values[i] = y(x_i)).

    ``values`` is a private read-only float64 copy of the input, taken
    whatever the input is, so the density and the caller's array never
    share memory.  The copy costs about 0.2 ms at N = 262145 on a 2-core
    Xeon VM, against 25-35 ms for an operator step there.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n_points:
            raise ValueError("values must be a 1-D array matching the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        if np.any(vals < 0.0):
            raise ValueError("density values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def scaled(self, c: float) -> "Density":
        if c < 0.0:
            raise ValueError("scale factor must be nonnegative")
        return Density(self.grid, c * self.values)


def _require_same_grid(y: Density, w: Density) -> None:
    if y.grid != w.grid:
        raise GridMismatchError(
            f"grids differ: {y.grid} vs {w.grid}; binary operations need equal grids"
        )


def quad_norm(y: Density) -> float:
    """Trapezoid approximation of the total mass on [0, x_max]."""
    return float(y.grid.trap_weights @ y.values)


def normalized(y: Density, mass: float = 1.0) -> Density:
    """``y`` scaled to quadrature mass ``mass``.

    Raises DegenerateDensityError, naming the grid, when ``y`` has no
    positive mass: its shape fell between the nodes or underflowed.
    """
    norm = quad_norm(y)
    if not norm > 0.0:
        raise DegenerateDensityError(
            f"density on {y.grid} has quadrature mass {norm:g} and cannot be normalized; "
            "the shape falls between the nodes or underflows on this grid"
        )
    return y.scaled(mass / norm)


def quad_mean(y: Density) -> float:
    """Trapezoid approximation of the unnormalized first moment.

    For a unit-norm density this is the mean wealth.  Raises on zero-mass
    input, where the mean is undefined.
    """
    w = y.grid.trap_weights
    if float(w @ y.values) == 0.0:
        raise DegenerateDensityError("mean undefined for a zero-norm density")
    return float(w @ (y.grid.nodes * y.values))


def l1_distance(y: Density, w: Density) -> float:
    """Trapezoid approximation of the L1 distance between two densities."""
    _require_same_grid(y, w)
    return float(y.grid.trap_weights @ np.abs(y.values - w.values))


_CELL = 24  # bytes in the longest %.17g cell, -2.2250738585072014e-308
_BLOCK_ROWS = 4096  # rows formatted at once, so the formatter's temporaries stay near 1.5 MB
_SAFE_DECADES = 280  # |v| in [1e-280, 1e280): no table entry or split product over- or underflows
_TIE_BOUND = 2.0**-40  # far above the product's error, which stays below 5e-15


@functools.cache
def _cell_tables():
    """The formatter's tables, built on first use in about 2 ms: 10^p as hi + lo (hi also in two
    26-bit halves), the text and kept digits of each 4-digit group, and the cell layouts."""
    hi, lo = [], []
    for p in range(16 - _SAFE_DECADES, 17 + _SAFE_DECADES):  # hi and lo each correctly rounded
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    hi_top = hi * 134217729.0 - (hi * 134217729.0 - hi)
    group = np.arange(10000)
    group_text = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48)
    group_kept = np.where(group > 0, 4 - (group % 10 == 0) - (group % 100 == 0) - (group % 1000 == 0), -16)
    lead = np.array([[sign, 48, 46, 48 + d] for sign in (0, 45) for d in range(10)], np.uint8)
    x = np.arange(-_SAFE_DECADES - 1, _SAFE_DECADES + 2)
    exps = np.array([b"e%+03d" % k for k in x.tolist()], "S8").view(np.uint32).reshape(-1, 2)
    layouts = 17 * np.where((x < -4) | (x > 16), 0, np.where(x >= 0, 1 + x, 17 - x)) - 1
    # Source row bytes: 0 sign or NUL, 1 '0', 2 '.', 3 + i digit i, 24..28 exponent, 31 NUL.  Layout
    # 0 is d.ddde±XX, 1 + x positional at exponent x = 0..16, 17 + z at x = -z; a cell with k kept
    # digits is a prefix of its layout's 17-digit order, then layout 0's exponent.
    full = np.full((22, 1, _CELL), 31)
    for layout, order in enumerate([[0, 3, 2, *range(4, 20)]] + [[0, *range(3, 4 + x), 2, *range(4 + x, 20)]
                                    for x in range(17)] + [[0, 1, 2, *[1] * z, *range(3, 20)] for z in range(4)]):
        full[layout, 0, :len(order)] = order
    layout, kept, j = np.ogrid[:22, 1:18, :_CELL]
    length = np.where(layout == 0, 2 + kept * (kept > 1),
                      np.where(layout < 18, np.where(kept > layout, 2 + kept, 1 + layout), layout - 15 + kept))
    orders = np.where(j < length, full, np.where((layout == 0) & (j < length + 5), 24 + j - length, 31))
    return (hi_top, hi - hi_top, np.array(lo), group_text.view(np.uint32).ravel(), group_kept,
            lead.view(np.uint32).ravel(), exps, layouts, orders.reshape(-1, _CELL))


def _python_cells(values: np.ndarray) -> np.ndarray:
    """Python's own ``b'%.17g' % v`` of each value, as ``_float_cells`` lays its rows out."""
    return np.array([b"%.17g" % v for v in values.tolist()], f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``b'%.17g' % v`` of each double of ``values``: the rows of an (n, 24) NUL-padded uint8 matrix.

    With x = |v| and p = 16 - floor(log10 x), y = x*10^p is Dekker's exact product of x and hi
    plus x*lo, where hi + lo is 10^p to 2^-106: off the exact product by under 5e-15, and exact
    where 10^p is a double (p = 0..22).  The integer D nearest y, ties to even, holds the 17
    correctly rounded digits when y is exact or its fraction is over 2^-40 from a half, and
    10^16 < D < 10^17 (or D = 10^16 <= y by that margin).  Every other cell -- a near-tie, an
    exponent estimate one off, |v| outside [1e-280, 1e280), inf, nan -- goes to ``_python_cells``,
    so each cell is exact.  Layout as %g: positional when -4 <= exponent < 17, else d.ddde±XX,
    trailing zeros and a bare point dropped.
    """
    hi_top, hi_low, lo, group_text, group_kept, lead, exps, layouts, orders = _cell_tables()
    x = np.abs(values)
    safe = (x >= 10.0**-_SAFE_DECADES) & (x < 10.0**_SAFE_DECADES)
    x = np.where(safe, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    hi, hl, lo = hi_top.take(_SAFE_DECADES - e), hi_low.take(_SAFE_DECADES - e), lo.take(_SAFE_DECADES - e)
    yh = x * (hi + hl)
    x_top = x * 134217729.0 - (x * 134217729.0 - x)
    yl = (x_top * hi - yh + x_top * hl + (x - x_top) * hi + (x - x_top) * hl) + x * lo
    whole = np.rint(yl)
    frac = yl - whole
    d = yh.astype(np.int64) + whole.astype(np.int64)
    exact = lo == 0.0
    zero = values == 0.0
    ok = zero | safe & (exact | (np.abs(np.abs(frac) - 0.5) > _TIE_BOUND)) & (d < 10**17) & (
        (d > 10**16) | (d == 10**16) & (frac >= np.where(exact, 0.0, _TIE_BOUND)))
    d = np.where(ok & ~zero, d, 0)  # 0 keeps every lookup below in range; a zero's e is 0 already
    top, bottom = np.divmod(d, 10**8)
    first, top = np.divmod(top, 10**8)
    groups = np.stack([top // 10**4, top % 10**4, bottom // 10**4, bottom % 10**4], axis=1)
    kept = (group_kept.take(groups) + [1, 5, 9, 13]).max(axis=1).clip(1)
    words = np.empty((len(x), 8), np.uint32)  # the source rows
    words[:, 0] = lead.take(first + 10 * np.signbit(values))
    words[:, 1:5] = group_text.take(groups)
    words[:, 6:] = exps.take(e + _SAFE_DECADES + 1, axis=0)
    rows = orders.take(layouts.take(e + _SAFE_DECADES + 1) + kept, axis=0)
    rows += np.arange(0, 32 * len(x), 32)[:, None]
    cells = words.view(np.uint8).ravel()[rows]
    undecided = np.flatnonzero(~ok)
    if undecided.size:
        cells[undecided] = _python_cells(values[undecided])
    return cells


def _text_cells(column) -> np.ndarray:
    """``str()`` of every cell, UTF-8 encoded, as the rows of a NUL-padded uint8 matrix."""
    text = np.array([str(c).encode() for c in column], np.bytes_)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _write_table(path, header, n_rows, cells_of) -> None:
    """Write the header and each row block's NUL-padded cell matrices, ``cells_of(rows)``, as CSV."""
    body = []
    for start in range(0, n_rows, _BLOCK_ROWS):
        cells = cells_of(slice(start, start + _BLOCK_ROWS))
        comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
        parts = [part for c in cells for part in (c, comma)]
        parts[-1] = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (len(comma), 2))
        body.append(np.hstack(parts).tobytes().translate(None, b"\0"))
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        f.writelines(body)


def write_csv(path, header, columns) -> None:
    """Write a header row and ``columns`` as UTF-8 CSV with CRLF line ends.

    ``columns`` holds one sequence per header cell, all of one length.  A column whose
    first cell is a ``float`` (numpy ``float64`` included) is written at 17 significant
    digits (``%.17g``, a bit-exact round-trip): by ``_float_cells`` from one row block
    up, by Python's own ``%.17g`` (``_python_cells``) below, and for a column that is not
    all float64.  The short path stays because the tables do not pay there: sending every
    float column through ``_float_cells`` made ``families`` (54 rows) slower, 0.0576 ->
    0.0612 s in 6 of 6 benchmark pairs, with peak RSS 37.04 -> 37.40 MB.  Other cells go
    through ``str()``.  A column count other than the header's, or columns of
    unequal length, raise ValueError; a ``str`` in a float column raises TypeError.
    Nothing is written when either is raised.  Cells are not quoted, so none may hold a
    comma, a quote, a line break or a NUL.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} cells")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    kinds = []
    for col in columns:
        if n and isinstance(col[0], float):
            values = np.asarray(col)
            short = values.dtype != np.float64 or n < _BLOCK_ROWS
            kinds.append((_python_cells if short else _float_cells, values))
        else:
            kinds.append((_text_cells, col))
    _write_table(path, header, n, lambda rows: [fmt(col[rows]) for fmt, col in kinds])


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with two-space indent, sorted keys and a final newline."""
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


DENSITY_CSV_HEADER = ("x", "density")
_DENSITY_HEADER_LINE = ",".join(DENSITY_CSV_HEADER)


@functools.lru_cache(maxsize=1)
def _node_cells(grid: Grid) -> np.ndarray:
    """The node cells of ``grid``'s density files, formatted once per grid (about 20 bytes a node)."""
    cells = np.concatenate([_float_cells(grid.nodes[s:s + _BLOCK_ROWS])
                            for s in range(0, grid.n_points, _BLOCK_ROWS)])
    return cells[:, :np.flatnonzero(cells.any(axis=0))[-1] + 1]  # without the all-NUL right columns


def write_density_csv(path, y: Density) -> None:
    """Serialize as two-column CSV at full double precision (round-trips bit-exactly): the bytes
    of ``write_csv`` on the node and value columns, with the grid's node cells cached."""
    nodes = _node_cells(y.grid)
    _write_table(path, DENSITY_CSV_HEADER, y.grid.n_points,
                 lambda rows: [nodes[rows], _float_cells(y.values[rows])])


def map_on_cores(fn, items) -> list:
    """``[fn(x) for x in items]``, the items of the sequence shared among the usable cores.

    On Linux while one Python thread runs, k = min(items, usable cores) processes
    work, process c on items c, c+k, ...: each child pickles its results into a
    temporary file, and the parent reaps every child.  A fork costs about 2.5 ms.
    If any share fails, the serial loop runs again from item 0, so the error is the
    serial loop's first and ``fn`` must be safe to run twice.  Tracers see the parent's calls.
    """
    forkable = sys.platform == "linux" and threading.active_count() == 1
    k = min(len(items), len(os.sched_getaffinity(0))) if items and forkable else 1
    pids, shares = [], []
    for c in range(1, k):
        try:
            shares.append(tempfile.TemporaryFile())
            pids.append(os.fork())
        except OSError:
            break
        if pids[-1] == 0:
            try:
                pickle.dump([fn(x) for x in items[c::k]], shares[-1])
                shares[-1].flush()
                os._exit(0)
            finally:
                os._exit(1)
    results, failed = [None] * len(items), False
    try:
        for c in [0, *range(len(pids) + 1, k)]:
            results[c::k] = [fn(x) for x in items[c::k]]
    except Exception:
        failed = True
    finally:
        failed |= any([os.waitpid(pid, 0)[1] for pid in pids])
        for c, share in enumerate(shares, 1):
            with share:
                if not failed and c <= len(pids):
                    share.seek(0)
                    results[c::k] = pickle.load(share)
    return [fn(x) for x in items] if failed else results


def write_density_csvs(paths, densities) -> None:
    """Each density to its path by ``write_density_csv``, through ``map_on_cores``: forked on
    Linux while one Python thread runs (2.5 ms a fork); a failed share reruns the serial loop."""
    jobs = list(zip(paths, densities, strict=True))
    if jobs:  # before any fork, so every process shares the node cells and the tables
        _node_cells(jobs[0][1].grid)
    map_on_cores(lambda job: write_density_csv(*job), jobs)


def read_density_csv(path) -> Density:
    """Parse a CSV written by ``write_density_csv``; malformed input raises ValueError.

    The first line must read ``x,density``.  Every later line must hold two
    unquoted numbers and nothing else, with LF or CRLF line ends; numpy's C
    reader parses them, correctly rounded, so a node column written at
    fewer digits (``0.5``) reads back as the same doubles.  A blank line, a
    missing or extra cell, a quoted or non-numeric cell, no data rows, or a
    node column that is not the uniform grid given by its length and last
    node are rejected.
    """
    with open(path, newline="") as f:
        header = f.readline().rstrip("\r\n")
        lines = f.read().splitlines()
    if header != _DENSITY_HEADER_LINE:
        raise ValueError(f"expected header {_DENSITY_HEADER_LINE!r}, got {header!r}")
    if not lines:
        raise ValueError(f"{path}: no data rows after the header")
    if "" in lines:
        raise ValueError(f"{path}: blank line at data row {lines.index('') + 1}")
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: every data row must hold two numbers ({exc})") from None
    if table.shape[1] != 2:
        raise ValueError(f"{path}: every data row must hold two numbers, got {table.shape[1]}")
    x = table[:, 0]
    grid = make_grid(len(x), x[-1])
    if not np.array_equal(grid.nodes, x):
        raise ValueError("node column is not the uniform grid implied by its length and endpoint")
    return Density(grid, table[:, 1])
