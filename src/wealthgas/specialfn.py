"""Self-contained incomplete gamma, exponential integral, and half-integer gamma.

Only the cases the closed-form family iterates actually need are provided:

* Gamma(s, x) for integer s >= 1, via the finite sum
  Gamma(n+1, x) = n! * exp(-x) * sum_{k=0..n} x^k / k!,
* E1(x) = Gamma(0, x), vectorized over numpy arrays: a fixed-length series
  up to x = 1.5 and a fixed-depth continued fraction beyond,
* Gamma(k + 1/2) by the recurrence from Gamma(1/2) = sqrt(pi).

Everything is double precision.  Orders are capped at MAX_ORDER = 80.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606
MAX_ORDER = 80
_E1_BRANCH_POINT = 1.5
_E1_SERIES_TERMS = 30
_E1_CF_DEPTH = 100


def _check_order(n: int, what: str) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"{what} capped at {MAX_ORDER}, got {n}")


def _log_factorial(n: int) -> float:
    return math.log(math.factorial(n))


def upper_incomplete_gamma(s: int, x: float) -> float:
    """Gamma(s, x) = integral_x^inf t^(s-1) e^(-t) dt for integer s >= 1.

    Uses the exact finite form Gamma(s, x) = (s-1)! e^(-x) sum_{k<s} x^k/k!,
    with the sum accumulated in ascending k.  s = 0 is rejected; that case
    is the exponential integral E1 and is served by ``exp_integral_e1``.
    """
    if int(s) != s or s < 1:
        raise ValueError(f"s must be a positive integer, got {s} (s=0 is exp_integral_e1)")
    s = int(s)
    _check_order(s - 1, "gamma order s-1")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return math.exp(_log_factorial(s - 1))
    # log-space assembly keeps the e^{-x} * x^k/k! products finite for any x
    log_terms = [_log_factorial(s - 1) - x + k * math.log(x) - _log_factorial(k) for k in range(s)]
    top = max(log_terms)
    if top < -745.0:
        return 0.0
    return math.exp(top) * sum(math.exp(t - top) for t in log_terms)


def regularized_upper_gamma(s: int, x: np.ndarray) -> np.ndarray:
    """Q(s, x) = Gamma(s, x)/Gamma(s) for integer s >= 1, vectorized over x.

    Q(s, x) = e^(-x) sum_{k<s} x^k/k!; the sum is built by the stable term
    recurrence t_k = t_{k-1} * x/k with t_0 = e^(-x), so no factorial ever
    materializes.  Where e^(-x) underflows the result is 0.
    """
    if int(s) != s or s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    s = int(s)
    _check_order(s - 1, "gamma order s-1")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    term = np.exp(-x)
    acc = term.copy()
    for k in range(1, s):
        term = term * x / k
        acc += term
    return np.minimum(acc, 1.0)


def exp_integral_e1(x: float) -> float:
    """E1(x) = integral_x^inf e^(-t)/t dt for x > 0 (scalar form of the array path)."""
    return float(exp_integral_e1_array(x))


def exp_integral_e1_array(x: np.ndarray) -> np.ndarray:
    """E1 elementwise for x > 0; rejects any entry that is 0, negative or NaN.

    For x <= 1.5 the series -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k/(k k!)
    is cut at 30 terms (the next term is below 1e-28); above, the continued
    fraction e^(-x) / (x+1 - 1/(x+3 - 4/(x+5 - ...))) is evaluated bottom-up
    at depth 100, which has converged to double precision for x > 1.5.
    """
    x = np.asarray(x, dtype=np.float64)
    bad = x[~(x > 0.0)]
    if bad.size:
        raise ValueError(f"E1 requires x > 0 (logarithmic singularity at 0), got {bad[0]}")
    out = np.empty_like(x)
    small = x <= _E1_BRANCH_POINT
    xs = x[small]
    acc = -EULER_GAMMA - np.log(xs)
    term = np.ones_like(xs)
    for k in range(1, _E1_SERIES_TERMS + 1):
        term *= -xs / k
        acc -= term / k
    out[small] = acc
    xl = x[~small]
    t = xl + (2 * _E1_CF_DEPTH + 1)
    for k in range(_E1_CF_DEPTH, 0, -1):
        t = xl + (2 * k - 1) - k * k / t
    out[~small] = np.exp(-xl) / t
    return out


def gamma_half_integer(k: int) -> float:
    """Gamma(k + 1/2) by the recurrence Gamma(z+1) = z*Gamma(z) from sqrt(pi)."""
    if int(k) != k or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    _check_order(int(k), "half-integer order k")
    val = math.sqrt(math.pi)
    for j in range(int(k)):
        val *= j + 0.5
    return val
