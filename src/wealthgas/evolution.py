"""One-step wealth redistribution operator and its iteration driver.

The operator maps a density y to

    (Ty)(x) = integral_x^inf (y*y)(r)/r dr,      (y*y)(r) = integral_0^r y(s) y(r-s) ds,

the density after one synchronized round of random pairwise exchanges.  The
discretization is built from one set of trapezoid weights used three times:

* the autoconvolution is the discrete convolution of the weight-scaled
  samples, A = (w.y) conv (w.y), so c(r_m) ~= A_m / h on the doubled grid;
  one complex transform pair of the samples packed two to a complex number
  gives all of A, each transform in Bailey's four-step form and in place,
* the integrand g = c/r takes its analytic limit y(0)^2 at r = 0,
* the tail integral is accumulated right-to-left with trapezoid steps.

With this combination the discrete conservation laws are exact up to
rounding: quad_norm(Ty) = quad_norm(y)^2 and, for unit mass, quad_mean is
preserved bit-for-bit in practice.  The mass a step pushes past x_max is
therefore measured, not modelled: it is quad_norm(y)^2 - quad_norm(Ty), which
reads signed rounding (about +-1e-15) on clean runs.  A step maps mass c to
c^2, so the iteration holds every density, start and image, to mass 1 +- 1e-6
and to the tail rule values[-1] <= 1e-8 * max.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
    DegenerateDensityError,
    Density,
    Grid,
    l1_distance,
    quad_mean,
    quad_norm,
    write_csv,
)

TAIL_EPSILON = 1e-8
MASS_DEFECT_LIMIT = 1e-6


class TruncationHealthError(RuntimeError):
    """A density, an iteration's start or an operator image, carries non-negligible weight at x_max."""


class MassDefectError(RuntimeError):
    """A density of the iteration, its start or an image, has mass off 1 by more than MASS_DEFECT_LIMIT."""


def _check_tail(values: np.ndarray, what: str) -> None:
    """Raise TruncationHealthError unless values[-1] <= TAIL_EPSILON * max(values)."""
    top = float(values.max())
    if values[-1] > TAIL_EPSILON * top:
        raise TruncationHealthError(
            f"{what} at x_max is {values[-1]:.3e} > {TAIL_EPSILON:.0e} * max "
            f"({top:.3e}); the domain truncation is no longer negligible"
        )


@functools.lru_cache(maxsize=1)
def _four_step_tables(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The twiddles W_L^(k1 n2) of an l1 x l2 four-step transform, and the delay factor.

    With l1 = 2^ceil(k/2) and l2 = 2^floor(k/2) for length L = 2^k, row k1 of
    the twiddles is split as k1 = s*k1h + k1l (s = 2^floor(ceil(k/2)/2)), so
    W_L^(k1 n2) = W_L^(s k1h n2) W_L^(k1l n2) is the product of two small
    tables, of shapes (l1/s, l2) and (s, l2).  The factor (1 + W_L^k)/4 is
    laid out as the forward transform leaves the spectrum, k = k1 + l1 k2 at
    flat entry j = k1 l2 + k2, over the entries j < (L + l2)/2 that the
    spectral step reads.
    """
    k = length.bit_length() - 1
    l1, l2 = 1 << (k - k // 2), 1 << (k // 2)
    s = 1 << ((k - k // 2) // 2)
    n2 = np.arange(l2)
    high = np.exp(-2j * np.pi * (np.outer(s * np.arange(l1 // s), n2) % length) / length)
    low = np.exp(-2j * np.pi * np.outer(np.arange(s), n2) / length)
    j = np.arange((length + l2) // 2)
    delay = (1.0 + np.exp(-2j * np.pi * (j // l2 + l1 * (j % l2)) / length)) / 4.0
    for table in (high, low, delay):
        table.setflags(write=False)
    return high, low, delay


def _weighted_autoconv(y: Density) -> np.ndarray:
    """A_m = sum_{i+j=m} w_i w_j y_i y_j over the doubled index range.

    With a = w.y split into its even samples e_k = a_2k and odd samples
    o_k = a_2k+1, the even entries are A_2m = (e*e)_m + (o*o)_m-1 and the
    odd ones A_2m+1 = 2 (e*o)_m.  One complex transform pair of length L, the
    next power of two >= N-1, gives both halves: a is packed as z = e + i o
    (its own memory read as complex), and its spectrum Z gives
    W = Z^2 - f d^2, with f = (1 + e^(-2 pi i k/L))/4 and d = Z - conj Z(-k),
    the spectrum of (e*e + o*o delayed one sample) + i 2 (e*o).  So the
    inverse of W, read as floats, is A in order.

    Each transform is Bailey's four-step form on an l1 x l2 buffer
    (l1 l2 = L): the forward one takes the columns, the twiddles W_L^(k1 n2)
    and the rows, and leaves Z at k = k1 + l1 k2 in entry (k1, k2); the
    inverse one takes that order back through the rows, the conjugate
    twiddles and the columns to natural order, dividing by L exactly.
    Every transform runs in place in the buffer that holds a and then A;
    the spectral step between them needs one temporary of half its size.  The
    end entries are the single products a_0^2 and a_{N-1}^2 and are set
    exactly; at N = L+1 the circular even half wraps its one out-of-range
    term, a_{N-1}^2, onto A_0, which the exact A_0 overwrites.
    """
    n = y.grid.n_points
    size = 1
    while size < n - 1:
        size *= 2
    high, low, delay = _four_step_tables(size)
    l2 = high.shape[1]
    buf = np.empty(2 * size + 1)
    np.multiply(y.grid.trap_weights, y.values, out=buf[:n])
    buf[n:] = 0.0
    first, last = buf[0] * buf[0], buf[n - 1] * buf[n - 1]
    flat = buf[:-1].view(np.complex128)
    z = flat.reshape(-1, l2)
    split = z.reshape(high.shape[0], low.shape[0], l2)  # row k1 = s k1h + k1l at (k1h, k1l)
    np.fft.fft(z, axis=0, out=z)
    split *= high[:, None]
    split *= low
    np.fft.fft(z, axis=1, out=z)
    # In flat order, -k of entry j is entry l2 - j for j in [1, l2) and
    # L + l2 - 1 - j for j >= l2: each range reversed.  Since f(-k) = conj f(k)
    # and d(-k) = -conj d(k), one product e = f d^2 on a lower half gives
    # W = Z^2 - e there and conj W = (conj Z)^2 - e on the mirrored upper half
    mid = (size + l2) // 2
    for lower, upper in ((slice(1, l2 // 2), slice(l2 - 1, l2 // 2, -1)),
                         (slice(l2, mid), slice(size - 1, mid - 1, -1))):
        zl, zu = flat[lower], flat[upper]
        np.conjugate(zu, out=zu)
        e = zl - zu
        e *= e
        e *= delay[lower]
        zl *= zl
        zl -= e
        zu *= zu
        zu -= e
        np.conjugate(zu, out=zu)
    # the two entries that are their own mirror: f = 1/2 at k = 0, f = 0 at k = L/2
    flat[0] = flat[0] ** 2 + 2.0 * flat[0].imag ** 2
    flat[l2 // 2] **= 2
    np.fft.ifft(z, axis=1, out=z)
    split *= high.conj()[:, None]
    split *= low.conj()
    np.fft.ifft(z, axis=0, out=z)
    A = buf[: 2 * n - 1]
    A[0] = first
    A[-1] = last
    return A


def autoconvolve(y: Density) -> np.ndarray:
    """Sampled autoconvolution (y*y)(r_k) on the doubled domain [0, 2*x_max].

    Trapezoid-weighted discrete convolution scaled by the spacing; the
    zero-length integral at r = 0 is exactly 0.  The samples, packed two to
    a complex number, take one forward and one inverse complex transform
    of the next power of two >= N-1 points (N-1 itself at the default
    N = 2^k+1, where the one wrapped entry is set in closed form), so the
    cost is O(N log N); on unit-mass inputs it agrees pointwise with the
    O(N^2) direct sum to a few 1e-16 (verify's method_equivalence check).
    """
    c = _weighted_autoconv(y) / y.grid.spacing
    c[0] = 0.0
    return c


def apply_operator(y: Density) -> Density:
    """One redistribution step: a new Density on the same grid.

    The tail integral runs over the full doubled domain before restriction,
    so mass pushed past x_max (but not past 2*x_max) is kept.  The trapezoid
    steps are built from h*g(r_k) = A_k/(h k), formed directly with no power
    of h, so the step commutes with a dilation x -> c x to rounding for any
    c whose grid and values are finite.  h*g, the steps and their
    right-to-left sums are formed in place in the autoconvolution's buffer.
    Output is checked against the truncation-health bound
    values[-1] <= 1e-8 * max.
    """
    grid = y.grid
    h = grid.spacing
    n = grid.n_points
    A = _weighted_autoconv(y)
    y0 = y.values[0]
    # h*g: A_k / (h k), with the analytic limit h y(0)^2 at r = 0
    A[1:] /= h * np.arange(1.0, len(A))
    A[0] = y0 * (y0 * h)
    # trapezoid steps 0.5 (hg_k + hg_k+1), then their sums from the right
    steps = A[:-1]
    np.add(steps, A[1:], out=steps)
    steps *= 0.5
    np.cumsum(steps[::-1], out=steps[::-1])
    out = np.maximum(A[:n], 0.0)
    _check_tail(out, "operator output")
    return Density(grid, out)


def matched_exponential(grid: Grid, mean: float) -> Density:
    """Unit-mass sampled exponential whose discrete mean equals ``mean``.

    The rate is tuned so that quad_mean of the normalized sample matches the
    requested mean exactly (to ~1e-14 relative), which is the right target
    for convergence measurements on the same grid.  Raises ValueError when
    the tuning misses by more than 1e-12 relative: a mean too small for the
    grid spacing, or too large for a decreasing exponential on [0, x_max].
    """
    if not mean > 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    x = grid.nodes
    rate = 1.0 / mean
    for _ in range(60):
        vals = np.exp(-rate * x)
        target = Density(grid, vals / float(grid.trap_weights @ vals))
        m = quad_mean(target)
        if abs(m - mean) <= 1e-15 * mean:
            break
        rate *= m / mean
    if not abs(m - mean) <= 1e-12 * mean:
        raise ValueError(
            f"no sampled exponential on [0, {grid.x_max:g}] with {grid.n_points} points "
            f"found with mean {mean:g}; the rate search ended at mean {m:.17g}, "
            f"a relative miss of {abs(m - mean) / mean:.1e} > 1e-12"
        )
    return target


def _check_mass(mass: float, step: int) -> None:
    """Raise MassDefectError unless |mass - 1| <= MASS_DEFECT_LIMIT."""
    if not abs(mass - 1.0) <= MASS_DEFECT_LIMIT:
        raise MassDefectError(f"mass {mass:.17g} at step {step} is off 1 by more than {MASS_DEFECT_LIMIT:.0e}: a "
                              "step maps mass c to c**2, so its error doubles every step; normalize the start, "
                              "increase x_max, or run fewer steps")


@dataclass(frozen=True)
class IterationReport:
    """Per-step record of the iteration driver."""

    step: int
    norm: float
    mean: float
    mass_defect: float
    dist_to_target: float
    step_delta: float


def iterate_operator(
    y0: Density,
    n_steps: int,
    early_stop_delta: float | None = None,
) -> tuple[list[Density], list[IterationReport]]:
    """Apply the operator repeatedly, reporting convergence per step.

    Returns the trajectory (initial density included, so n_steps+1 entries
    unless stopped early) and one report per applied step.  The convergence
    target is the sampled exponential whose discrete mean equals
    quad_mean(y0), the distribution the iteration conserves its mean toward.
    Each report's ``mass_defect`` is its own step's loss past x_max,
    quad_norm(y)^2 - quad_norm(Ty), exact to rounding.  Every density, the
    start as step 0 and each image, must have quad_norm within 1e-6 of 1, else
    MassDefectError: a step maps mass c to c**2, so a mass error doubles every
    step, rounding included.  A start failing the tail rule values[-1] <=
    1e-8 * max raises TruncationHealthError; one with no mass, or with all
    of it at x = 0, DegenerateDensityError.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    if early_stop_delta is not None and not early_stop_delta > 0.0:
        raise ValueError(f"early_stop_delta must be positive, got {early_stop_delta}")
    _check_tail(y0.values, "initial density")
    mean = quad_mean(y0)
    if not mean > 0.0:
        raise DegenerateDensityError(f"initial density on {y0.grid} has mean 0: it has no mass, or all of it at x = 0")
    target = matched_exponential(y0.grid, mean)
    densities = [y0]
    reports: list[IterationReport] = []
    y, norm = y0, quad_norm(y0)
    _check_mass(norm, 0)
    for step in range(1, n_steps + 1):
        y_next = apply_operator(y)
        norm_next = quad_norm(y_next)
        _check_mass(norm_next, step)
        report = IterationReport(
            step=step,
            norm=norm_next,
            mean=quad_mean(y_next),
            mass_defect=norm**2 - norm_next,
            dist_to_target=l1_distance(y_next, target),
            step_delta=l1_distance(y_next, y),
        )
        densities.append(y_next)
        reports.append(report)
        y, norm = y_next, norm_next
        if early_stop_delta is not None and report.step_delta < early_stop_delta:
            break
    return densities, reports


REPORT_CSV_HEADER = ("step", "norm", "mean", "mass_defect", "dist_to_target", "step_delta")


def write_reports_csv(path, reports: list[IterationReport]) -> None:
    write_csv(path, REPORT_CSV_HEADER,
              [[getattr(r, name) for r in reports] for name in REPORT_CSV_HEADER])


def characteristic_function(y: Density, p_values) -> np.ndarray:
    """ybar(p) = integral_0^xmax e^(ipx) y(x) dx by trapezoid quadrature."""
    p = np.atleast_1d(np.asarray(p_values, dtype=np.float64))
    wv = y.grid.trap_weights * y.values
    phases = np.exp(1j * np.outer(p, y.grid.nodes))
    return phases @ wv


def fixed_point_ode_residual(y: Density, p_values) -> np.ndarray:
    """|ybar + p ybar' - ybar^2|, with ybar' = i * (transform of x y) by the same quadrature.

    Near-zero exactly when y is a fixed point of the redistribution operator
    (the transform of a fixed point solves ybar + p ybar' = ybar^2).  At
    p = 0 it reads |norm(y) - norm(y)^2|.
    """
    p = np.atleast_1d(np.asarray(p_values, dtype=np.float64))
    phi = characteristic_function(y, p)
    dphi = 1j * characteristic_function(Density(y.grid, y.grid.nodes * y.values), p)
    return np.abs(phi + p * dphi - phi**2)


_EXTRAP_NODES = (4, 8, 16)


def derivative_chain(y: Density) -> list[np.ndarray]:
    """y and its first three derivatives, each the central differences of the one before."""
    chain = [y.values]
    for _ in range(3):
        chain.append(np.gradient(chain[-1], y.grid.spacing, edge_order=2))
    return chain


def extrapolated_to_zero(chain: list[np.ndarray]) -> tuple[float, ...]:
    """Each field of a ``derivative_chain`` at x = 0.

    Each field is evaluated at nodes 4, 8, 16 and quadratically
    extrapolated to 0; stencils touching the first node are avoided because
    the boundary node of an operator image carries a local quadrature
    artifact that m-th differences amplify by 1/h^m.
    """
    if len(chain[0]) <= 2 * _EXTRAP_NODES[-1]:
        raise ValueError("grid too coarse for derivative extrapolation")
    j0, j1, j2 = _EXTRAP_NODES
    c0 = (0 - j1) * (0 - j2) / ((j0 - j1) * (j0 - j2))
    c1 = (0 - j0) * (0 - j2) / ((j1 - j0) * (j1 - j2))
    c2 = (0 - j0) * (0 - j1) / ((j2 - j0) * (j2 - j1))
    return tuple(float(c0 * d[j0] + c1 * d[j1] + c2 * d[j2]) for d in chain)
