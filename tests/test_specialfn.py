"""Special-function tests with independent scipy, quadrature and 40-digit oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from wealthgas import specialfn
from wealthgas.families import FamilySpec, _gamma_sum, closed_form_step_values
from wealthgas.specialfn import e1_difference_quotient


def test_gauss_legendre_constants_are_leggauss_bit_for_bit():
    nodes, weights = specialfn._GAUSS_LEGENDRE_16
    t, w = np.polynomial.legendre.leggauss(16)
    assert nodes.tobytes() == t.tobytes() and weights.tobytes() == w.tobytes()


def Q(s, x):
    """Q(s, x) = e^(-x) sum_{k<s} x^k/k!, the family evaluator at rate 1 with c = ones(s)."""
    return _gamma_sum(1.0, np.ones(s), np.asarray(x, dtype=np.float64))


def test_upper_gamma_at_zero_is_complete_gamma():
    # Gamma(s, 0) = Gamma(s), so Q(s, 0) = 1
    for s in (1, 3, 81):
        assert Q(s, 0.0) == 1.0


def test_upper_gamma_s1_is_exp():
    assert Q(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_upper_gamma_against_quadrature_oracle():
    # oracle: adaptive quadrature of the defining integral; the tail beyond
    # t = 120 is below 1e-40 and is dropped
    oracle, err = integrate.quad(
        lambda t: t**4 * math.exp(-t), 2.0, 120.0, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    assert err < 1e-10
    assert Q(5, 2.0) * math.factorial(4) == pytest.approx(oracle, rel=1e-12)


def test_upper_gamma_recurrence_property():
    # Q(s+1, x) = Q(s, x) + x^s e^(-x)/s!
    rng = np.random.default_rng(3)
    for _ in range(60):
        s = int(rng.integers(1, 40))
        x = float(rng.uniform(0.0, 30.0))
        rhs = Q(s, x) + x**s * math.exp(-x) / math.factorial(s)
        assert Q(s + 1, x) == pytest.approx(rhs, rel=1e-12)


def test_upper_gamma_derivative_by_central_difference():
    # d/dx Q(s, x) = -x^(s-1) e^(-x)/(s-1)!
    step = 1e-5
    for s, x in ((2, 0.7), (5, 3.2), (9, 11.0)):
        fd = (Q(s, x + step) - Q(s, x - step)) / (2 * step)
        exact = -(x ** (s - 1)) * math.exp(-x) / math.factorial(s - 1)
        assert fd == pytest.approx(exact, rel=1e-6)


def test_upper_gamma_scipy_cross_check():
    for s in (1, 2, 7, 31, 81):
        for x in (0.0, 0.5, 4.0, 60.0):
            assert Q(s, x) == pytest.approx(float(special.gammaincc(s, x)), rel=1e-12)


def test_upper_gamma_vectorized():
    x = np.array([0.0, 0.3, 2.0, 25.0, 300.0])
    for s in (1, 3, 11):
        np.testing.assert_allclose(Q(s, x), special.gammaincc(s, x), rtol=1e-12, atol=1e-300)


# the six mix pairs of the lattice; rate ratios 10 to 1e15 either way round; near and equal rates
_RATE_PAIRS = [(0.5, 1.5), (0.5, 3.0), (1.0, 1.5), (1.0, 3.0), (2.0, 1.5), (2.0, 3.0)]
_RATE_PAIRS += [pair for ratio in (10.0, 1e2, 1e4, 1e6, 1e10, 1e15) for pair in ((1.0, ratio), (ratio, 1.0))]
_RATE_PAIRS += [(1.0, 1.0 + 1e-13), (1.0, 1.0 + 1e-7), (50.0, 50.0005), (1e3, 1e3 * (1.0 + 1e-9)), (7.0, 7.0)]


def _quotient_40_digits(a, b, x):
    """(E1(b x) - E1(a x))/(a - b) at the same doubles in 40-digit arithmetic, with its limits."""
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        if a == b:
            return mpmath.exp(-a * x) / a
        if x == 0:
            return mpmath.log(a / b) / (a - b)
        return (mpmath.e1(b * x) - mpmath.e1(a * x)) / (a - b)


@pytest.mark.parametrize("a, b", _RATE_PAIRS)
def test_e1_difference_quotient_against_a_40_digit_oracle(a, b):
    # x = 0, 1e-300 and 130 points of [0, 40 * mean]; the worst error measured over these pairs is
    # 4.1e-15 relative (ratio 1e10), and the bound leaves 100x of margin
    x = np.concatenate([[1e-300], np.linspace(0.0, 20.0 * (1.0 / a + 1.0 / b), 130)])
    got = e1_difference_quotient(a, b, x)
    worst = max(abs(mpmath.mpf(g) / _quotient_40_digits(a, b, v) - 1) for g, v in zip(got.tolist(), x.tolist()))
    assert worst <= 4e-13
    # symmetric in the rates, bit for bit
    assert np.array_equal(e1_difference_quotient(b, a, x), got)


def test_mix_step_at_x_1e308_is_zero_without_a_warning():
    # uncapped, rate * x overflows at x = 1e308
    vals = closed_form_step_values(FamilySpec("mix", alpha=1.0, beta=3.0), np.array([0.5, 1e308]))
    assert vals[1] == 0.0
    assert vals[0] == closed_form_step_values(FamilySpec("mix", alpha=1.0, beta=3.0), np.array([0.5]))[0]


@pytest.mark.parametrize("a, b", _RATE_PAIRS)
def test_the_cap_keeps_every_finite_value_bit_for_bit(a, b, monkeypatch):
    # x runs past the point where every node's e^(-s x) is 0, then to 1e308
    x = np.concatenate([np.linspace(0.0, 1e3 * (1.0 / a + 1.0 / b), 2001), [1e300, 1e308]])
    capped = e1_difference_quotient(a, b, x)
    assert np.all(np.isfinite(capped)) and capped[-1] == 0.0
    monkeypatch.setattr(specialfn, "EXP_ZERO_ARG", math.inf)
    with np.errstate(over="ignore"):
        uncapped = e1_difference_quotient(a, b, x)
    assert np.array_equal(capped, uncapped)
