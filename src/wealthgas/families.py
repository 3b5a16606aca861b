"""Analytic density families, their means, and closed-form first steps.

Each family is a mixture sum_k w_k gamma(r_k, n_k) of unit-mass gamma
densities r^(n+1)/n! x^n e^(-r x) (order 0 is the exponential), with
components (weight, rate, order):

* exponential(alpha):        (1, alpha, 0)
* gamma(alpha, n):           (1, alpha, n)
* mix(alpha, beta):          (1/2, alpha, 0), (1/2, beta, 0)
* epsmix(eps, alpha, n):     (1-eps, alpha, 0), (eps, alpha, n)

Density and mean are sums over the components.  The operator is the
quadratic form T(f) = B(f, f) of the bilinear map
B(f, g)(x) = integral_x^inf (f*g)(r)/r dr, so a mixture's image is
sum_k w_k^2 B(k, k) + sum_{k<l} 2 w_k w_l B(k, l), an exact oracle for the
numerical operator.  B has one closed form on a common rate r,

    B(gamma(r, a), gamma(r, b))(x) = r/m Q(m, r x),   m = a + b + 1,

with Q the regularized upper incomplete gamma function, finite for every
argument.  Unequal rates meet only in the mix, between two exponentials:
B(exp_a, exp_b)(x) = ab/(a-b) (E1(b x) - E1(a x)), which tends to
ab/(a-b) ln(a/b) at x = 0.  Every order-0 member is its own image.

Sampled densities are normalized to unit mass under the grid quadrature,
so sampled fixed points are fixed points of the discrete operator too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .evolution import apply_operator
from .grid import Density, Grid, l1_distance, normalized
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


def _components(spec: FamilySpec) -> tuple[tuple[float, float, int], ...]:
    """The (weight, rate, order) gamma components whose mixture is the family."""
    if spec.kind is FamilyKind.EXPONENTIAL:
        return ((1.0, spec.alpha, 0),)
    if spec.kind is FamilyKind.GAMMA:
        return ((1.0, spec.alpha, spec.n),)
    if spec.kind is FamilyKind.TWO_EXP_MIX:
        return ((0.5, spec.alpha, 0), (0.5, spec.beta, 0))
    return ((1.0 - spec.eps, spec.alpha, 0), (spec.eps, spec.alpha, spec.n))


def _gamma_pdf(rate: float, order: int, x: np.ndarray) -> np.ndarray:
    if order == 0:
        return rate * np.exp(-rate * x)
    # prefactor rate^(n+1)/n! via logs; x^n e^(-rate x) assembled per node
    logc = (order + 1) * math.log(rate) - math.lgamma(order + 1)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(logc + order * np.log(x[pos]) - rate * x[pos])
    return out


def evaluate_family(spec: FamilySpec, x) -> np.ndarray:
    """Pointwise analytic values (no grid normalization)."""
    x = np.asarray(x, dtype=np.float64)
    return sum(w * _gamma_pdf(r, n, x) for w, r, n in _components(spec))


def sample_family(spec: FamilySpec, grid: Grid) -> Density:
    """Family member sampled on the grid and normalized to unit quadrature mass."""
    vals = evaluate_family(spec, grid.nodes)
    return normalized(Density(grid, vals))


def family_mean(spec: FamilySpec) -> float:
    """Closed-form mean of the analytic family member."""
    return sum(w * ((n + 1) / r) for w, r, n in _components(spec))


def _bilinear_image(first: tuple[float, int], second: tuple[float, int], x: np.ndarray) -> np.ndarray:
    """B(gamma(a, m), gamma(b, k)) at x for two (rate, order) components."""
    (a, m), (b, k) = first, second
    if a == b:
        return a / (m + k + 1) * regularized_upper_gamma(m + k + 1, a * x)
    # unequal rates: only the mix builds them, between two exponentials (m = k = 0);
    # ab/(a-b) is formed as a * (b/(a-b)), which neither over- nor underflows
    scale = a * (b / (a - b))
    out = np.empty_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = scale * (exp_integral_e1_array(b * xp) - exp_integral_e1_array(a * xp))
    # removable singularity at 0: E1(b x) - E1(a x) -> ln(a/b)
    out[~pos] = scale * math.log(a / b)
    return out


def closed_form_step_values(spec: FamilySpec, x) -> np.ndarray:
    """Pointwise closed-form image of the family under one operator step."""
    x = np.asarray(x, dtype=np.float64)
    comps = _components(spec)
    diagonal = sum(w * w * _bilinear_image((r, n), (r, n), x) for w, r, n in comps)
    return sum((2.0 * wk * wl * _bilinear_image((rk, nk), (rl, nl), x)
                for (wk, rk, nk), (wl, rl, nl) in combinations(comps, 2)), diagonal)


def closed_form_step(spec: FamilySpec, grid: Grid) -> Density:
    """Closed-form first iterate sampled on the grid, unit quadrature mass."""
    vals = closed_form_step_values(spec, grid.nodes)
    return normalized(Density(grid, np.maximum(vals, 0.0)))


def triangle_density(grid: Grid, mean: float = 1.0) -> Density:
    """Unit-mass symmetric triangle on [0, 2*mean], peak at the mean."""
    if not mean > 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    if grid.x_max <= 2.0 * mean:
        raise ValueError("grid must extend beyond the triangle support [0, 2*mean]")
    x = grid.nodes
    vals = np.where(
        x <= mean, x / mean / mean, np.where(x <= 2.0 * mean, (2.0 * mean - x) / mean / mean, 0.0)
    )
    return normalized(Density(grid, vals))


@dataclass(frozen=True)
class ContractionResult:
    d_before: float
    d_after: float
    contracted: bool
    oracle_l1_gap: float


def contraction_check(spec: FamilySpec, grid: Grid) -> ContractionResult:
    """Does one closed-form step move the family toward its limit exponential?

    The reference is the exponential with rate 1/family_mean(spec).  The
    exponential family, and the gamma and epsilon members of order n = 0
    that equal it, are their own image: the start stands in for the image, so
    both distances coincide exactly (the summed epsilon image differs from
    its start at rounding level) and contracted is False.  oracle_l1_gap is
    the L1 distance between apply_operator and the closed-form image.
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
        oracle_l1_gap=l1_distance(apply_operator(y), ty),
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
