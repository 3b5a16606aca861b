"""Self-contained exponential integral E1(x) = Gamma(0, x), vectorized over x.

The closed-form image of the two-rate mix needs it: a fixed-length series
up to x = 1.5 and a fixed-depth continued fraction beyond, in double
precision.
"""

from __future__ import annotations

import numpy as np

EULER_GAMMA = 0.5772156649015328606
_E1_BRANCH_POINT = 1.5
_E1_SERIES_TERMS = 30
_E1_CF_DEPTH = 100


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
