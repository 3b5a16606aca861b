"""Uniform grids and sampled wealth densities with trapezoid quadrature.

A density lives on the uniform grid x_i = i*h, i = 0..n-1, h = x_max/(n-1),
and integrals are composite trapezoid sums

    integral f ~= h*(f_0/2 + f_1 + ... + f_{n-2} + f_{n-1}/2).

The same weights are reused by the convolution kernel in ``evolution`` so
that the discrete conservation laws hold to machine precision.  The infinite
domain [0, inf) is truncated at x_max; the mass each operator step pushes
past x_max follows exactly from those laws, is reported as ``mass_defect``
and is never folded back into the density.

This module also owns the on-disk format of every output file (``write_csv``
and ``write_json``) and ``map_on_cores``, which forks on Linux while one Python
thread runs (about 2.5 ms a fork) and reruns the serial loop if any share fails.
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


def write_csv(path, header, columns) -> None:
    """Write a header row and ``columns`` as CSV with CRLF line ends.

    ``columns`` holds one sequence per header cell, all of one length.  A
    column's cells share the type of its first cell: one row format is
    built from the first cells, repeated once per row and applied to the
    interleaved cells in a single ``%``.  A ``float`` cell (numpy
    ``float64`` included) is written at 17 significant digits, which
    round-trips bit-exactly; every other cell goes through ``str()``.  A
    column count other than the header's, or columns of unequal length,
    raise ValueError; a ``str`` in a float column raises TypeError.  The
    file is written only once the whole text is built, so nothing is
    written when either is raised.  Cells are not quoted, so none may hold
    a comma, a quote or a line break.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} cells")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    body = ""
    if n:
        k = len(columns)
        flat = [None] * (n * k)
        for j, col in enumerate(columns):
            flat[j::k] = col
        fmt = ",".join(["%.17g" if isinstance(c, float) else "%s" for c in flat[:k]]) + "\r\n"
        body = (fmt * n) % tuple(flat)
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.write(body)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with two-space indent, sorted keys and a final newline."""
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


DENSITY_CSV_HEADER = ("x", "density")
_DENSITY_HEADER_LINE = ",".join(DENSITY_CSV_HEADER)


@functools.lru_cache(maxsize=1)
def _density_template(grid: Grid) -> str:
    """The density CSV of ``grid`` with its node cells filled and a ``%.17g`` slot per value.

    Built once for all densities on one grid; about 30 bytes per node.
    """
    nodes = grid.nodes.tolist()
    return _DENSITY_HEADER_LINE + "\r\n" + ("%.17g,%%.17g\r\n" * len(nodes)) % tuple(nodes)


def write_density_csv(path, y: Density) -> None:
    """Serialize as two-column CSV at full double precision (round-trips bit-exactly).

    The bytes are those of ``write_csv`` on the node and value columns; the
    text is the grid's cached template filled with the values in one ``%``.
    """
    text = _density_template(y.grid) % tuple(y.values.tolist())
    with open(path, "w", newline="") as f:
        f.write(text)


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
    if jobs:  # before any fork, so every process shares the template
        _density_template(jobs[0][1].grid)
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
