"""One-step wealth redistribution operator and its iteration driver.

The operator maps a density y to

    (Ty)(x) = integral_x^inf (y*y)(r)/r dr,      (y*y)(r) = integral_0^r y(s) y(r-s) ds,

the density after one synchronized round of random pairwise exchanges.  The
discretization is built from one set of trapezoid weights used three times:

* the autoconvolution is the discrete convolution of the weight-scaled
  samples, A = (w.y) conv (w.y), so c(r_m) ~= A_m / h on the doubled grid,
* the integrand g = c/r takes its analytic limit y(0)^2 at r = 0,
* the tail integral is accumulated right-to-left with trapezoid steps.

With this combination the discrete conservation laws are exact up to
rounding: quad_norm(Ty) = quad_norm(y)^2 and, for unit mass, quad_mean is
preserved bit-for-bit in practice.  The mass a step pushes past x_max is
therefore measured, not modelled: it is quad_norm(y)^2 - quad_norm(Ty), which
reads signed rounding (about +-1e-15) on clean runs.  A density whose last
sample exceeds 1e-8 of its maximum, start or image, is rejected loudly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
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
    """Operator output carries non-negligible weight at the last node."""


class MassDefectError(RuntimeError):
    """The iteration's start reaches x_max, or its steps lost too much mass past x_max."""


def _check_tail(values: np.ndarray, what: str, error: type[RuntimeError]) -> None:
    """Raise ``error`` unless values[-1] <= TAIL_EPSILON * max(values)."""
    top = float(values.max())
    if values[-1] > TAIL_EPSILON * top:
        raise error(
            f"{what} at x_max is {values[-1]:.3e} > {TAIL_EPSILON:.0e} * max "
            f"({top:.3e}); the domain truncation is no longer negligible"
        )


@functools.lru_cache(maxsize=1)
def _delay(length: int) -> np.ndarray:
    """e^(-2 pi i k / length), k = 0..length/2: the spectrum of a one-sample delay."""
    z = np.exp(-2j * np.pi * np.arange(length // 2 + 1) / length)
    z.setflags(write=False)
    return z


def _weighted_autoconv(y: Density) -> np.ndarray:
    """A_m = sum_{i+j=m} w_i w_j y_i y_j over the doubled index range.

    With a = w.y split into its even samples e_k = a_2k and odd samples
    o_k = a_2k+1, the even entries are A_2m = (e*e)_m + (o*o)_m-1 and the
    odd ones A_2m+1 = 2 (e*o)_m.  Four real transforms of length L, the next
    power of two >= N-1, give both halves: the delay of o*o is a product
    with the cached spectrum of a one-sample delay.  The end entries are the
    single products a_0^2 and a_{N-1}^2 and are set exactly; at N = L+1 the
    circular even half wraps its one out-of-range term, a_{N-1}^2, onto A_0,
    which the exact A_0 overwrites.
    """
    a = y.grid.trap_weights * y.values
    n = a.shape[0]
    size = 1
    while size < n - 1:
        size *= 2
    # each buffer is dropped once spent, which keeps the step's peak memory
    # and page faults down
    fe = np.fft.rfft(a[0::2], size)
    fo = np.fft.rfft(a[1::2], size)
    first, last = a[0] * a[0], a[-1] * a[-1]
    del a
    odd = fe * fo
    odd *= 2.0
    fe *= fe
    fo *= fo
    fo *= _delay(size)
    fe += fo
    del fo
    A = np.empty(2 * n - 1)
    A[1::2] = np.fft.irfft(odd, size)[: n - 1]
    del odd
    A[0:-1:2] = np.fft.irfft(fe, size)[: n - 1]
    A[0] = first
    A[-1] = last
    return A


def autoconvolve(y: Density) -> np.ndarray:
    """Sampled autoconvolution (y*y)(r_k) on the doubled domain [0, 2*x_max].

    Trapezoid-weighted discrete convolution scaled by the spacing; the
    zero-length integral at r = 0 is exactly 0.  The even and odd samples
    are transformed separately, at the next power of two >= N-1 points
    (N-1 itself at the default N = 2^k+1, where the one wrapped entry is set
    in closed form), so the cost is O(N log N); on unit-mass inputs it
    agrees pointwise with the O(N^2) direct sum to a few 1e-16 (verify's
    method_equivalence check).
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
    _check_tail(out, "operator output", TruncationHealthError)
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
            f"found with mean {mean:g}; the rate search ended at mean {m:g}"
        )
    return target


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
    Each report's ``mass_defect`` is the mass its step pushed past x_max,
    quad_norm(y)^2 - quad_norm(Ty): exact to rounding, since the operator
    squares the mass on its doubled domain.  Raises MassDefectError when the
    start fails the tail rule values[-1] <= 1e-8 * max, or when the defects
    summed over the run exceed 1e-6: the domain is then too small for the
    requested run, or, when the start's mass is not 1 (to 1e-12), the mass
    grew as c -> c**2 per step and the message names it.  A start with no
    mass raises DegenerateDensityError from quad_mean.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    if early_stop_delta is not None and not early_stop_delta > 0.0:
        raise ValueError(f"early_stop_delta must be positive, got {early_stop_delta}")
    _check_tail(y0.values, "initial density", MassDefectError)
    target = matched_exponential(y0.grid, quad_mean(y0))
    densities = [y0]
    reports: list[IterationReport] = []
    y = y0
    norm = start_mass = quad_norm(y0)
    lost = 0.0
    for step in range(1, n_steps + 1):
        y_next = apply_operator(y)
        norm_next = quad_norm(y_next)
        defect = norm**2 - norm_next
        lost += defect
        if lost > MASS_DEFECT_LIMIT:
            cause = "increase x_max" if abs(start_mass - 1.0) <= 1e-12 else (
                f"the start's mass is {start_mass:.17g}, not 1: a step maps mass c to c**2, so it is now "
                f"{norm_next:.3e} and the defect is rounding, not loss past x_max; normalize the start")
            raise MassDefectError(f"mass defect {lost:.3e} > {MASS_DEFECT_LIMIT:.0e} at step {step}; {cause}")
        report = IterationReport(
            step=step,
            norm=norm_next,
            mean=quad_mean(y_next),
            mass_defect=defect,
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
