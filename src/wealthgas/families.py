"""Analytic density families, their means, and closed-form first steps.

Four unit-mass families are supported:

* exponential(alpha):        alpha e^(-alpha x)
* gamma(alpha, n):           alpha^(n+1)/n! x^n e^(-alpha x)
* mix(alpha, beta):          (alpha e^(-alpha x) + beta e^(-beta x)) / 2
* epsmix(eps, alpha, n):     (1-eps) exponential + eps gamma

Each non-exponential family has a closed-form image under one application
of the redistribution operator; those serve as exact oracles for the
numerical operator.  The operator is the quadratic form of the bilinear map
B(f, g)(x) = integral_x^inf (f*g)(r)/r dr, and for gamma members of orders a
and b with a common rate alpha (order 0 is the exponential)

    B(gamma_a, gamma_b)(x) = alpha/m Q(m, alpha x),   m = a + b + 1,

with Q the regularized upper incomplete gamma function.  So T(gamma_n) is
alpha/(2n+1) Q(2n+1, alpha x), and the epsilon family's image is

    (1-e)^2 T(exp) + e^2 T(gamma_n) + 2e(1-e) B(exp, gamma_n),

which stays finite for every argument without exp/Gamma overflow pairing.

Sampled densities are normalized to unit mass under the grid quadrature,
so sampled fixed points are fixed points of the discrete operator too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evolution import ConvolutionMethod, apply_operator
from .grid import Density, Grid, l1_distance, quad_norm
from .specialfn import MAX_ORDER, exp_integral_e1_array, regularized_upper_gamma


class FamilyKind(str, Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    TWO_EXP_MIX = "mix"
    EPSILON_MIX = "epsmix"


@dataclass(frozen=True)
class FamilySpec:
    """Parameter record for one analytic family member."""

    kind: FamilyKind
    alpha: float = 1.0
    beta: float | None = None
    n: int | None = None
    eps: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", FamilyKind(self.kind))
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.kind in (FamilyKind.GAMMA, FamilyKind.EPSILON_MIX):
            if self.n is None or int(self.n) != self.n or self.n < 0:
                raise ValueError(f"n must be a nonnegative integer, got {self.n}")
            # the closed-form step needs Gamma(2n+1, .), whose order 2n is capped
            if self.n > MAX_ORDER // 2:
                raise ValueError(f"n capped at {MAX_ORDER // 2}, got {self.n}")
            object.__setattr__(self, "n", int(self.n))
        if self.kind is FamilyKind.TWO_EXP_MIX:
            if self.beta is None or not self.beta > 0.0:
                raise ValueError(f"beta must be positive, got {self.beta}")
            if self.beta == self.alpha:
                raise ValueError("mix requires alpha != beta (closed form divides by alpha-beta)")
        if self.kind is FamilyKind.EPSILON_MIX:
            if self.eps is None or not 0.0 <= self.eps <= 1.0:
                raise ValueError(f"eps must lie in [0, 1], got {self.eps}")


def _gamma_pdf(alpha: float, n: int, x: np.ndarray) -> np.ndarray:
    # prefactor alpha^(n+1)/n! via logs; x^n e^(-alpha x) assembled per node
    logc = (n + 1) * math.log(alpha) - math.lgamma(n + 1)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(logc + n * np.log(x[pos]) - alpha * x[pos])
    if n == 0:
        out[~pos] = alpha
    return out


def evaluate_family(spec: FamilySpec, x) -> np.ndarray:
    """Pointwise analytic values (no grid normalization)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.kind is FamilyKind.EXPONENTIAL:
        return spec.alpha * np.exp(-spec.alpha * x)
    if spec.kind is FamilyKind.GAMMA:
        return _gamma_pdf(spec.alpha, spec.n, x)
    if spec.kind is FamilyKind.TWO_EXP_MIX:
        return 0.5 * (
            spec.alpha * np.exp(-spec.alpha * x) + spec.beta * np.exp(-spec.beta * x)
        )
    expo = spec.alpha * np.exp(-spec.alpha * x)
    return (1.0 - spec.eps) * expo + spec.eps * _gamma_pdf(spec.alpha, spec.n, x)


def sample_family(spec: FamilySpec, grid: Grid) -> Density:
    """Family member sampled on the grid and normalized to unit quadrature mass."""
    vals = evaluate_family(spec, grid.nodes)
    raw = Density(grid, vals)
    return raw.scaled(1.0 / quad_norm(raw))


def family_mean(spec: FamilySpec) -> float:
    """Closed-form mean of the analytic family member."""
    if spec.kind is FamilyKind.EXPONENTIAL:
        return 1.0 / spec.alpha
    if spec.kind is FamilyKind.GAMMA:
        return (spec.n + 1) / spec.alpha
    if spec.kind is FamilyKind.TWO_EXP_MIX:
        return 0.5 * (1.0 / spec.alpha + 1.0 / spec.beta)
    return (1.0 + spec.eps * spec.n) / spec.alpha


def _gamma_image(alpha: float, m: int, x: np.ndarray) -> np.ndarray:
    # B(gamma_a, gamma_b)(x) for orders with a + b + 1 = m
    return alpha / m * regularized_upper_gamma(m, alpha * x)


def _mix_step_values(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = 0.25 * (
        alpha * np.exp(-alpha * xp)
        + beta * np.exp(-beta * xp)
        + 2.0 * alpha * beta / (alpha - beta)
        * (exp_integral_e1_array(beta * xp) - exp_integral_e1_array(alpha * xp))
    )
    # removable singularity at 0: E1(b x) - E1(a x) -> ln(a/b)
    out[~pos] = 0.25 * (alpha + beta + 2.0 * alpha * beta / (alpha - beta) * math.log(alpha / beta))
    return out


def closed_form_step_values(spec: FamilySpec, x) -> np.ndarray:
    """Pointwise closed-form image of the family under one operator step."""
    x = np.asarray(x, dtype=np.float64)
    if spec.kind is FamilyKind.EXPONENTIAL:
        raise ValueError("the exponential family is its own image; use sample_family")
    if spec.kind is FamilyKind.GAMMA:
        return _gamma_image(spec.alpha, 2 * spec.n + 1, x)
    if spec.kind is FamilyKind.TWO_EXP_MIX:
        return _mix_step_values(spec.alpha, spec.beta, x)
    e = spec.eps
    expo_part = spec.alpha * np.exp(-spec.alpha * x)
    return (
        (1.0 - e) ** 2 * expo_part
        + e * e * _gamma_image(spec.alpha, 2 * spec.n + 1, x)
        + 2.0 * e * (1.0 - e) * _gamma_image(spec.alpha, spec.n + 1, x)
    )


def closed_form_step(spec: FamilySpec, grid: Grid) -> Density:
    """Closed-form first iterate sampled on the grid, unit quadrature mass."""
    vals = closed_form_step_values(spec, grid.nodes)
    raw = Density(grid, np.maximum(vals, 0.0))
    return raw.scaled(1.0 / quad_norm(raw))


def triangle_density(grid: Grid, mean: float = 1.0) -> Density:
    """Unit-mass symmetric triangle on [0, 2*mean], peak at the mean."""
    if not mean > 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    if grid.x_max <= 2.0 * mean:
        raise ValueError("grid must extend beyond the triangle support [0, 2*mean]")
    x = grid.nodes
    vals = np.where(
        x <= mean, x / mean**2, np.where(x <= 2.0 * mean, (2.0 * mean - x) / mean**2, 0.0)
    )
    raw = Density(grid, vals)
    return raw.scaled(1.0 / quad_norm(raw))


@dataclass(frozen=True)
class ContractionResult:
    d_before: float
    d_after: float
    contracted: bool
    oracle_l1_gap: float


def contraction_check(spec: FamilySpec, grid: Grid, method=ConvolutionMethod.FFT) -> ContractionResult:
    """Does one closed-form step move the family toward its limit exponential?

    The reference is the exponential with rate 1/family_mean(spec).  The
    exponential family, and the gamma and epsilon members of order n = 0
    that equal it, are their own image, so both distances coincide and they
    are reported as contracted = False rather than an error.  oracle_l1_gap is
    the L1 distance between the numerical step (apply_operator with
    ``method``) and the closed-form image.
    """
    w = sample_family(FamilySpec(FamilyKind.EXPONENTIAL, alpha=1.0 / family_mean(spec)), grid)
    y = sample_family(spec, grid)
    ty = y if spec.kind is FamilyKind.EXPONENTIAL or spec.n == 0 else closed_form_step(spec, grid)
    d_before = l1_distance(y, w)
    d_after = l1_distance(ty, w)
    return ContractionResult(
        d_before=d_before,
        d_after=d_after,
        contracted=d_after < d_before,
        oracle_l1_gap=l1_distance(apply_operator(y, method), ty),
    )


def _lattice() -> tuple[FamilySpec, ...]:
    alphas = (0.5, 1.0, 2.0)
    betas = (1.5, 3.0)
    ns = (0, 1, 2, 5)
    epss = (0.25, 0.5, 0.75)
    specs: list[FamilySpec] = []
    for a in alphas:
        for n in ns:
            specs.append(FamilySpec(FamilyKind.GAMMA, alpha=a, n=n))
    for a in alphas:
        for b in betas:
            specs.append(FamilySpec(FamilyKind.TWO_EXP_MIX, alpha=a, beta=b))
    for a in alphas:
        for n in ns:
            for e in epss:
                specs.append(FamilySpec(FamilyKind.EPSILON_MIX, alpha=a, n=n, eps=e))
    return tuple(specs)


PARAMETER_LATTICE: tuple[FamilySpec, ...] = _lattice()
