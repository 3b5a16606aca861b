"""Uniform grids and sampled wealth densities with trapezoid quadrature.

A density lives on the uniform grid x_i = i*h, i = 0..n-1, h = x_max/(n-1),
and integrals are composite trapezoid sums

    integral f ~= h*(f_0/2 + f_1 + ... + f_{n-2} + f_{n-1}/2).

The same weights are reused by the convolution kernel in ``evolution`` so
that the discrete conservation laws hold to machine precision.  The infinite
domain [0, inf) is truncated at x_max; the estimated mass beyond x_max is
reported as ``mass_defect`` and never folded back into the density.

This module also owns the on-disk format of every output file (``write_csv``
and ``write_json``).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
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
    of the grid: every call returns the same read-only array, so a caller
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

    def trap_weights(self) -> np.ndarray:
        """The trapezoid weights h/2, h, ..., h, h/2 as one shared read-only array."""
        return self._trap_weights

    @functools.cached_property
    def _trap_weights(self) -> np.ndarray:
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
    """Nonnegative sampled function on a Grid (values[i] = y(x_i))."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
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
    return float(y.grid.trap_weights() @ y.values)


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
    w = y.grid.trap_weights()
    if float(w @ y.values) == 0.0:
        raise DegenerateDensityError("mean undefined for a zero-norm density")
    return float(w @ (y.grid.nodes * y.values))


def l1_distance(y: Density, w: Density) -> float:
    """Trapezoid approximation of the L1 distance between two densities."""
    _require_same_grid(y, w)
    return float(y.grid.trap_weights() @ np.abs(y.values - w.values))


def tail_mass_estimate(y: Density) -> float:
    """Estimate the probability mass lost beyond x_max.

    Fits an exponential to the last tenth of the domain (log-linear least
    squares over the positive samples there) and integrates it analytically
    past the truncation point.  The fit runs in x / x_max, so no power of x
    is formed and the estimate holds at any domain scale.  Compactly
    supported or zero tails give 0.
    """
    last = float(y.values[-1])
    if last <= 0.0:
        return 0.0
    x = y.grid.nodes
    window = x >= 0.9 * y.grid.x_max
    xs = x[window]
    vs = y.values[window]
    pos = vs > 0.0
    if pos.sum() < 2:
        return last * y.grid.x_max
    slope = np.polyfit(xs[pos] / y.grid.x_max, np.log(vs[pos]), 1)[0] / y.grid.x_max
    rate = -slope
    if rate <= 0.0:
        return last * y.grid.x_max
    return last / rate


def write_csv(path, header, rows) -> None:
    """Write a header row and ``rows`` as CSV with CRLF line ends.

    Every row is a tuple with the cell types of the first row: one row
    format is built from the first row and applied to all of them.  A
    ``float`` cell (numpy ``float64`` included) is written at 17 significant
    digits, which round-trips bit-exactly; every other cell goes through
    ``str()``.  A first row whose length differs from the header's raises
    ValueError; a later row of another length, or a ``str`` in a float
    column, raises TypeError.  Cells are not quoted, so none may hold a
    comma, a quote or a line break.
    """
    rows = iter(rows)
    first = next(rows, None)
    body = ""
    if first is not None:
        if len(first) != len(header):
            raise ValueError(f"first row has {len(first)} cells, the header {len(header)}")
        fmt = ",".join(["%.17g" if isinstance(c, float) else "%s" for c in first]) + "\r\n"
        body = "".join(map(fmt.__mod__, itertools.chain([first], rows)))
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.write(body)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with two-space indent, sorted keys and a final newline."""
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


DENSITY_CSV_HEADER = ("x", "density")


@functools.lru_cache(maxsize=1)
def _node_cells(grid: Grid) -> tuple:
    """The node column as ``.17g`` cells, formatted once for all densities on one grid."""
    return tuple(["%.17g" % x for x in grid.nodes.tolist()])


def write_density_csv(path, y: Density) -> None:
    """Serialize as two-column CSV at full double precision (round-trips bit-exactly)."""
    write_csv(path, DENSITY_CSV_HEADER, zip(_node_cells(y.grid), y.values.tolist()))


def read_density_csv(path) -> Density:
    """Parse a CSV written by ``write_density_csv``; malformed input raises ValueError."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader, ()))
        if header != DENSITY_CSV_HEADER:
            raise ValueError(f"expected header {DENSITY_CSV_HEADER}, got {header}")
        try:
            table = np.array([(float(xi), float(vi)) for xi, vi in reader])
        except ValueError as exc:
            raise ValueError(f"{path}: every data row must hold two numbers ({exc})") from None
    if table.size == 0:
        raise ValueError(f"{path}: no data rows after the header")
    x, vals = table[:, 0], table[:, 1]
    grid = make_grid(len(x), x[-1])
    if not np.array_equal(grid.nodes, x):
        raise ValueError("node column is not the uniform grid implied by its length and endpoint")
    return Density(grid, vals)
