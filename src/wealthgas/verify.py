"""Executable property suite for the redistribution operator.

Each check measures one provable property of the operator on concrete
inputs and compares against a fixed threshold:

* mass squaring:         quad_norm(Ty) = quad_norm(y)^2
* mean conservation:     quad_mean(Ty) = quad_mean(y) for unit-mass y
* L1 Lipschitz bound:    ||Ty - Tw|| <= 2 ||y - w||, with the bound
                         approached (ratio 1) by pairs of fixed points
* exponential fixed point, transform-side ODE residual, absence of
  2-cycles, pointwise monotonicity, complete-monotonicity sign patterns,
  the derivative-at-zero recurrence, and the norm trichotomy
  ||T^k y|| = ||y||^(2^k)
* FFT autoconvolution against the direct O(N^2) sum

The random inputs are seeded mixtures of gamma/exponential shapes, so a
run is fully deterministic for a given settings record.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .evolution import (
    apply_operator,
    autoconvolve,
    derivative_at_zero,
    fixed_point_ode_residual,
    matched_exponential,
)
from .families import FamilyKind, FamilySpec, evaluate_family, sample_family, triangle_density
from .grid import Density, Grid, l1_distance, make_grid, normalized, quad_mean, quad_norm


@dataclass(frozen=True)
class VerifySettings:
    n_points: int = 4097
    x_max: float = 40.0
    seed: int = 20240901


# random inputs per randomized check
N_RANDOM = 50


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    measured: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool
    detail: str = ""


def _check(name: str, measured: float, threshold: float, comparison: str = "<=", detail: str = "") -> PropertyCheck:
    ok = measured <= threshold if comparison == "<=" else measured >= threshold
    return PropertyCheck(name, float(measured), float(threshold), comparison, bool(ok), detail)


def random_density(grid: Grid, rng: np.random.Generator, norm: float | None = None) -> Density:
    """Seeded random mixture of gamma/exponential shapes, scaled to a target mass.

    Component rates stay >= 0.8 and orders <= 5 so the tail beyond the
    default domain is far below every threshold in the suite.
    """
    vals = np.zeros_like(grid.nodes)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(0, 6))
        # component mean (k+1)/alpha stays <= 2 so the default domain holds
        # the mass to far below every threshold
        alpha = float(rng.uniform(max(0.8, (k + 1) / 2.0), 3.0))
        comp = evaluate_family(FamilySpec(FamilyKind.GAMMA, alpha=alpha, n=k), grid.nodes)
        vals += float(rng.uniform(0.2, 1.0)) * comp
    target = float(rng.uniform(0.25, 2.0)) if norm is None else norm
    return normalized(Density(grid, vals), target)


def random_pdf(grid: Grid, rng: np.random.Generator) -> Density:
    return random_density(grid, rng, norm=1.0)


_FIXED_POINT_RATES = (0.5, 0.7, 0.9, 1.0, 1.3, 1.7, 2.0)


def run_property_suite(settings: VerifySettings = VerifySettings()) -> list[PropertyCheck]:
    grid = make_grid(settings.n_points, settings.x_max)
    rng = np.random.default_rng(settings.seed)
    checks: list[PropertyCheck] = []

    # mass squaring + mean conservation on one random batch
    worst_norm = 0.0
    worst_mean = 0.0
    for _ in range(N_RANDOM):
        y = random_density(grid, rng)
        ty = apply_operator(y)
        worst_norm = max(worst_norm, abs(quad_norm(ty) - quad_norm(y) ** 2))
        p = normalized(y)
        tp = apply_operator(p)
        worst_mean = max(worst_mean, abs(quad_mean(tp) - quad_mean(p)) / quad_mean(p))
    checks.append(_check("norm_squaring", worst_norm, 1e-7, detail="max |norm(Ty) - norm(y)^2|"))
    checks.append(_check("mean_conservation", worst_mean, 1e-5, detail="max relative mean drift, unit-mass inputs"))

    # Lipschitz bound and its non-vacuity
    fixed_points = [
        sample_family(FamilySpec(FamilyKind.EXPONENTIAL, alpha=a), grid) for a in _FIXED_POINT_RATES
    ]
    images = [apply_operator(f) for f in fixed_points]
    ratios = []
    for a in range(len(fixed_points)):
        for b in range(a + 1, len(fixed_points)):
            ratios.append(
                l1_distance(images[a], images[b]) / l1_distance(fixed_points[a], fixed_points[b])
            )
    for _ in range(N_RANDOM):
        y = random_pdf(grid, rng)
        w = random_pdf(grid, rng)
        d = l1_distance(y, w)
        if d > 1e-12:
            ratios.append(l1_distance(apply_operator(y), apply_operator(w)) / d)
    checks.append(_check("lipschitz_bound", max(ratios), 2.0 + 1e-6, detail="max ||Ty-Tw||/||y-w||"))
    checks.append(
        _check("lipschitz_nonvacuity", max(ratios), 1.0, ">=", detail="largest ratio reaches the unit sphere")
    )

    # exponential fixed points on their natural domains
    worst_fp = 0.0
    for a in (0.5, 1.0, 2.0):
        g = make_grid(settings.n_points, 40.0 / a)
        y = sample_family(FamilySpec(FamilyKind.EXPONENTIAL, alpha=a), g)
        worst_fp = max(worst_fp, l1_distance(apply_operator(y), y))
    checks.append(_check("fixed_point", worst_fp, 1e-6, detail="max L1 self-distance of sampled exponentials"))

    # transform-side ODE residual: tiny at the fixed point, large away from it
    expo = matched_exponential(grid, 1.0)
    tri = triangle_density(grid, mean=1.0)
    res_fp = float(np.max(fixed_point_ode_residual(expo, [0.5, 1.0, 2.0])))
    res_tri = float(np.min(fixed_point_ode_residual(tri, [0.5, 1.0, 2.0])))
    checks.append(_check("ode_residual_fixed_point", res_fp, 1e-4, detail="max residual at p in {0.5, 1, 2}"))
    checks.append(_check("ode_residual_rejects_nonfixed", res_tri, 1e-2, ">=", detail="min triangle residual"))

    # no 2-cycles: T^2 y close to y forces Ty close to y
    violations = 0
    near_fixed = normalized(Density(grid, expo.values * (1.0 + 0.05 * np.sin(grid.nodes))))
    candidates = [random_pdf(grid, rng) for _ in range(N_RANDOM - 2)] + [expo, near_fixed]
    for y in candidates:
        ty = apply_operator(y)
        tty = apply_operator(ty)
        if l1_distance(tty, y) < 1e-4 and l1_distance(ty, y) >= 1e-3:
            violations += 1
    checks.append(_check("no_two_cycles", violations, 0.0, detail="count of 2-cycle candidates that are not fixed"))

    # operator images decrease monotonically in x
    worst_jump = 0.0
    for y in (tri, random_pdf(grid, rng)):
        img = apply_operator(y).values
        worst_jump = max(worst_jump, float(np.max(np.diff(img))))
    checks.append(_check("monotone_decrease", worst_jump, 1e-12, detail="max increase between adjacent nodes of Ty"))

    # complete monotonicity evidence + derivative-at-zero recurrence
    t2 = apply_operator(apply_operator(tri))
    t3 = apply_operator(t2)
    worst_sign = math.inf
    h = grid.spacing
    for target in (expo, t3):
        d = np.asarray(target.values, dtype=np.float64)
        for m in (1, 2, 3):
            d = np.gradient(d, h, edge_order=2)
            interior = d[m + 2 : -(m + 2)]
            worst_sign = min(worst_sign, float(np.min(((-1.0) ** m) * interior)))
    checks.append(_check("complete_monotonicity", worst_sign, -1e-6, ">=", detail="min signed FD derivative, m<=3"))

    worst_rec = 0.0
    for current, previous in ((t3, t2), (apply_operator(expo), expo)):
        prev_d = [((-1.0) ** k) * derivative_at_zero(previous, k) for k in range(3)]
        for m in (1, 2, 3):
            lhs = ((-1.0) ** m) * derivative_at_zero(current, m)
            rhs = sum(prev_d[k] * prev_d[m - 1 - k] for k in range(m)) / m
            worst_rec = max(worst_rec, abs(lhs - rhs) / abs(rhs))
    checks.append(_check("derivative_zero_recurrence", worst_rec, 1e-3, detail="max relative error, m<=3"))

    # norm trichotomy: ||T^k y|| = ||y||^(2^k) for norms 0.9, 1.0, 1.1
    base = random_pdf(grid, rng)
    worst_tri = 0.0
    for c in (0.9, 1.0, 1.1):
        y = base.scaled(c)
        expected = c
        for _ in range(5):
            y = apply_operator(y)
            expected = expected**2
            worst_tri = max(worst_tri, abs(quad_norm(y) - expected) / expected)
    checks.append(_check("norm_trichotomy", worst_tri, 1e-6, detail="max relative norm error over 5 steps"))

    # the FFT autoconvolution against the direct O(N^2) sum it replaces; the
    # rough input's last sample is not small, so its entry a_{N-1}^2, the one
    # the circular transform wraps, shows in the comparison
    pdf = random_pdf(grid, rng)
    rough = Density(grid, rng.random(grid.n_points))
    worst_eq = 0.0
    for y in (expo, pdf, normalized(rough)):
        a = grid.trap_weights() * y.values
        direct = np.convolve(a, a) / grid.spacing
        direct[0] = 0.0
        worst_eq = max(worst_eq, float(np.max(np.abs(direct - autoconvolve(y)))))
    checks.append(_check("method_equivalence", worst_eq, 1e-10, detail="max |direct - fft| autoconvolution"))

    return checks


def report_as_dict(checks: list[PropertyCheck], settings: VerifySettings) -> dict:
    return {
        "settings": {**asdict(settings), "n_random": N_RANDOM},
        "properties": [
            {
                "name": c.name,
                "measured": c.measured,
                "threshold": c.threshold,
                "comparison": c.comparison,
                "pass": c.passed,
                "detail": c.detail,
            }
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
