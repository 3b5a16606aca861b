"""Special-function tests with independent scipy/quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from wealthgas.families import _gamma_sum
from wealthgas.specialfn import exp_integral_e1_array


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


def test_e1_at_one_against_series_oracle():
    # oracle: the defining series -gamma - ln x + sum (-1)^(k+1) x^k/(k k!)
    # summed to machine convergence with fractions of terms
    x = 1.0
    acc = -0.5772156649015328606 - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        acc -= term / k
    e1 = float(exp_integral_e1_array(1.0))
    assert e1 == pytest.approx(acc, rel=1e-13)
    assert e1 == pytest.approx(0.21938393439552026, rel=1e-12)


def test_e1_scipy_cross_check():
    xs = np.array([0.01, 0.4, 1.0, 1.5, 1.6, 4.0, 20.0, 50.0])
    np.testing.assert_allclose(exp_integral_e1_array(xs), special.exp1(xs), rtol=1e-13, atol=0.0)


def test_e1_leading_asymptotics():
    x = 50.0
    assert float(exp_integral_e1_array(x)) * x * math.exp(x) == pytest.approx(1.0, rel=0.02)


def test_e1_rejects_nonpositive():
    # a scalar argument is rejected as well as an array entry
    with pytest.raises(ValueError):
        exp_integral_e1_array(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1_array(-1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_e1_array_rejects_nonpositive_and_nan(bad):
    with pytest.raises(ValueError):
        exp_integral_e1_array(np.array([0.5, bad, 3.0]))


def test_e1_crossover_band_scipy_cross_check():
    # both sides of the series / continued-fraction switch at x = 1.5
    xs = np.linspace(1.2, 1.8, 25)
    np.testing.assert_allclose(exp_integral_e1_array(xs), special.exp1(xs), rtol=1e-13, atol=0.0)


def test_e1_array_dense_scipy_cross_check():
    xs = np.geomspace(1e-4, 700.0, 20001)
    np.testing.assert_allclose(exp_integral_e1_array(xs), special.exp1(xs), rtol=1e-13, atol=0.0)

