"""Analytic density families, their means, and closed-form first steps.

At a rate r, write gamma_k = r (r x)^k e^(-r x)/k! for the unit-mass gamma
density of order k (order 0 is the exponential).  Each family is one
coefficient vector c per rate, the member being sum_k c_k gamma_k:

* exponential(alpha):        c = e_0 at alpha
* gamma(alpha, n):           c = e_n at alpha
* mix(alpha, beta):          c = (1/2) e_0 at alpha and at beta
* epsmix(eps, alpha, n):     c = (1-eps) e_0 + eps e_n at alpha

Every such sum is evaluated by one term recurrence.  The operator is the
quadratic form T(f) = B(f, f) of the bilinear map
B(f, g)(x) = integral_x^inf (f*g)(r)/r dr, and on a common rate
B(gamma_a, gamma_b) = (1/m) sum_{k<m} gamma_k with m = a + b + 1, so the
image of one rate's coefficients is again a coefficient vector,

    (Tc)_k = sum_{m>=k} (c*c)_m/(m+1),

an exact oracle for the numerical operator.  An order-0 member has
c = [1.0] exactly, which the step maps to itself bit for bit.  Unequal rates
meet only in the mix, between two exponentials:
B(exp_a, exp_b)(x) = ab/(a-b) (E1(b x) - E1(a x)), which tends to
ab/(a-b) ln(a/b) at x = 0.

Sampled densities are normalized to unit mass under the grid quadrature,
so sampled fixed points are fixed points of the discrete operator too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evolution import apply_operator
from .grid import Density, Grid, l1_distance, normalized
from .specialfn import exp_integral_e1_array

# outside input stops at order n = 40, whose step sums 2n + 1 = 81 terms
_MAX_N = 40


class FamilyKind(str, Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    TWO_EXP_MIX = "mix"
    EPSILON_MIX = "epsmix"


@dataclass(frozen=True)
class FamilySpec:
    """Parameter record for one analytic family member.

    ``beta`` belongs to ``mix``, ``n`` to ``gamma`` and ``epsmix``, ``eps``
    to ``epsmix``.  An option the kind does not use is set to None, so a
    caller may pass every option and the record keeps only those it uses.
    """

    kind: FamilyKind
    alpha: float = 1.0
    beta: float | None = None
    n: int | None = None
    eps: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", FamilyKind(self.kind))
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.kind in (FamilyKind.GAMMA, FamilyKind.EPSILON_MIX):
            if self.n is None or not self.n >= 0 or not float(self.n).is_integer():
                raise ValueError(f"n must be a nonnegative integer, got {self.n}")
            if self.n > _MAX_N:
                raise ValueError(f"n capped at {_MAX_N}, got {self.n}")
            object.__setattr__(self, "n", int(self.n))
        else:
            object.__setattr__(self, "n", None)
        if self.kind is FamilyKind.TWO_EXP_MIX:
            if self.beta is None or not 0.0 < self.beta < math.inf:
                raise ValueError(f"beta must be positive and finite, got {self.beta}")
            if self.beta == self.alpha:
                raise ValueError("mix requires alpha != beta (closed form divides by alpha-beta)")
        else:
            object.__setattr__(self, "beta", None)
        if self.kind is FamilyKind.EPSILON_MIX:
            if self.eps is None or not 0.0 <= self.eps <= 1.0:
                raise ValueError(f"eps must lie in [0, 1], got {self.eps}")
        else:
            object.__setattr__(self, "eps", None)


def _coefficients(spec: FamilySpec) -> tuple[tuple[float, np.ndarray], ...]:
    """The member as (rate, c) pairs: the sum over pairs of sum_k c_k gamma_k at that rate."""
    if spec.kind is FamilyKind.TWO_EXP_MIX:
        return (spec.alpha, np.array([0.5])), (spec.beta, np.array([0.5]))
    n = spec.n or 0
    c = np.zeros(n + 1)
    if spec.kind is FamilyKind.EPSILON_MIX:
        c[0] += 1.0 - spec.eps
        c[n] += spec.eps
    else:
        c[n] = 1.0
    return ((spec.alpha, c),)


def _gamma_sum(rate: float, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k gamma_k(x) at ``rate``, by the term recurrence t_k = t_{k-1} r x/k from
    t_0 = r e^(-r x), so no factorial materializes; 0 where e^(-r x) underflows."""
    if np.any(x < 0.0):
        raise ValueError("the closed forms need x >= 0")
    rx = rate * x
    term = rate * np.exp(-rx)
    acc = c[0] * term
    for k in range(1, len(c)):
        term = term * rx / k
        acc += c[k] * term
    return acc


def _coefficient_step(c: np.ndarray) -> np.ndarray:
    """One exact step on the coefficients of one rate: (Tc)_k = sum_{m>=k} (c*c)_m/(m+1)."""
    tail = np.convolve(c, c) / np.arange(1, 2 * len(c))
    return np.cumsum(tail[::-1])[::-1]


def evaluate_family(spec: FamilySpec, x) -> np.ndarray:
    """Pointwise analytic values (no grid normalization)."""
    x = np.asarray(x, dtype=np.float64)
    return sum(_gamma_sum(r, c, x) for r, c in _coefficients(spec))


def sample_family(spec: FamilySpec, grid: Grid) -> Density:
    """Family member sampled on the grid and normalized to unit quadrature mass."""
    vals = evaluate_family(spec, grid.nodes)
    return normalized(Density(grid, vals))


def family_mean(spec: FamilySpec) -> float:
    """Closed-form mean of the analytic family member: gamma_k has mean (k+1)/r."""
    return sum(ck * ((k + 1) / r) for r, c in _coefficients(spec) for k, ck in enumerate(c.tolist()))


def closed_form_step_values(spec: FamilySpec, x) -> np.ndarray:
    """Pointwise closed-form image of the family under one operator step."""
    x = np.asarray(x, dtype=np.float64)
    image = sum(_gamma_sum(r, _coefficient_step(c), x) for r, c in _coefficients(spec))
    if spec.kind is FamilyKind.TWO_EXP_MIX:
        # the cross-rate pair, 2 B(exp_a/2, exp_b/2) = (1/2) ab/(a-b) (E1(b x) - E1(a x)), with
        # ab/(a-b) formed as a * (b/(a-b)), which neither over- nor underflows
        a, b = spec.alpha, spec.beta
        scale = a * (b / (a - b))
        cross = np.full_like(x, scale * math.log(a / b))  # the removable singularity's value at 0
        pos = x > 0.0
        cross[pos] = scale * (exp_integral_e1_array(b * x[pos]) - exp_integral_e1_array(a * x[pos]))
        image = image + 0.5 * cross
    return image


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

    The reference is the exponential with rate 1/family_mean(spec).  Every
    order-0 member is its own closed-form image bit for bit, so both
    distances coincide exactly and contracted is False.  oracle_l1_gap is
    the L1 distance between apply_operator and the closed-form image.
    """
    w = sample_family(FamilySpec(FamilyKind.EXPONENTIAL, alpha=1.0 / family_mean(spec)), grid)
    y = sample_family(spec, grid)
    ty = closed_form_step(spec, grid)
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
