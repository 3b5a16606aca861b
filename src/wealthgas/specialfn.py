"""Self-contained incomplete gamma and exponential integral, vectorized over x.

Only the cases the closed-form family iterates actually need are provided:

* Q(s, x) = Gamma(s, x)/Gamma(s) for integer s >= 1, via the finite sum
  Q(s, x) = exp(-x) * sum_{k<s} x^k / k!, with orders capped at
  MAX_ORDER = 80 (s <= 81),
* E1(x) = Gamma(0, x): a fixed-length series up to x = 1.5 and a
  fixed-depth continued fraction beyond.

Everything is double precision.
"""

from __future__ import annotations

import numpy as np

EULER_GAMMA = 0.5772156649015328606
MAX_ORDER = 80
_E1_BRANCH_POINT = 1.5
_E1_SERIES_TERMS = 30
_E1_CF_DEPTH = 100


def regularized_upper_gamma(s: int, x: np.ndarray) -> np.ndarray:
    """Q(s, x) = Gamma(s, x)/Gamma(s) for integer s >= 1, vectorized over x.

    Q(s, x) = e^(-x) sum_{k<s} x^k/k!; the sum is built by the stable term
    recurrence t_k = t_{k-1} * x/k with t_0 = e^(-x), so no factorial ever
    materializes.  Where e^(-x) underflows the result is 0.
    """
    if int(s) != s or s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    s = int(s)
    if s - 1 > MAX_ORDER:
        raise ValueError(f"gamma order s-1 capped at {MAX_ORDER}, got {s - 1}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    term = np.exp(-x)
    acc = term.copy()
    for k in range(1, s):
        term = term * x / k
        acc += term
    return np.minimum(acc, 1.0)


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
