"""Special-function tests with independent scipy/quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from wealthgas import exp_integral_e1, gamma_half_integer, upper_incomplete_gamma
from wealthgas.specialfn import exp_integral_e1_array, regularized_upper_gamma


def test_upper_gamma_at_zero_is_complete_gamma():
    assert upper_incomplete_gamma(3, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert upper_incomplete_gamma(1, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_upper_gamma_s1_is_exp():
    assert upper_incomplete_gamma(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_upper_gamma_against_quadrature_oracle():
    # oracle: adaptive quadrature of the defining integral; the tail beyond
    # t = 120 is below 1e-40 and is dropped
    oracle, err = integrate.quad(
        lambda t: t**4 * math.exp(-t), 2.0, 120.0, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    assert err < 1e-10
    assert upper_incomplete_gamma(5, 2.0) == pytest.approx(oracle, rel=1e-12)


def test_upper_gamma_rejects_zero_order():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(3, -0.5)


def test_upper_gamma_recurrence_property():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x)
    rng = np.random.default_rng(3)
    for _ in range(60):
        s = int(rng.integers(1, 40))
        x = float(rng.uniform(0.0, 30.0))
        lhs = upper_incomplete_gamma(s + 1, x)
        rhs = s * upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_upper_gamma_derivative_by_central_difference():
    # d/dx Gamma(s, x) = -x^(s-1) e^(-x)
    step = 1e-5
    for s, x in ((2, 0.7), (5, 3.2), (9, 11.0)):
        fd = (upper_incomplete_gamma(s, x + step) - upper_incomplete_gamma(s, x - step)) / (2 * step)
        exact = -(x ** (s - 1)) * math.exp(-x)
        assert fd == pytest.approx(exact, rel=1e-6)


def test_upper_gamma_scipy_cross_check():
    for s in (1, 2, 7, 31, 81):
        for x in (0.0, 0.5, 4.0, 60.0):
            oracle = float(special.gammaincc(s, x) * special.gamma(s))
            assert upper_incomplete_gamma(s, x) == pytest.approx(oracle, rel=1e-12)


def test_upper_gamma_order_cap():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(82, 1.0)


def test_regularized_upper_gamma_vectorized():
    x = np.array([0.0, 0.3, 2.0, 25.0, 300.0])
    for s in (1, 3, 11):
        oracle = special.gammaincc(s, x)
        got = regularized_upper_gamma(s, x)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-300)


def test_e1_at_one_against_series_oracle():
    # oracle: the defining series -gamma - ln x + sum (-1)^(k+1) x^k/(k k!)
    # summed to machine convergence with fractions of terms
    x = 1.0
    acc = -0.5772156649015328606 - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        acc -= term / k
    assert exp_integral_e1(1.0) == pytest.approx(acc, rel=1e-13)
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552026, rel=1e-12)


def test_e1_scipy_cross_check():
    for x in (0.01, 0.4, 1.0, 1.5, 1.6, 4.0, 20.0, 50.0):
        assert exp_integral_e1(x) == pytest.approx(float(special.exp1(x)), rel=1e-13)


def test_e1_leading_asymptotics():
    x = 50.0
    assert exp_integral_e1(x) * x * math.exp(x) == pytest.approx(1.0, rel=0.02)


def test_e1_rejects_nonpositive():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-1.0)


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


def test_e1_array_matches_scalar():
    xs = np.array([0.2, 1.0, 3.0])
    np.testing.assert_allclose(
        exp_integral_e1_array(xs), [exp_integral_e1(float(v)) for v in xs], rtol=1e-15
    )


def test_gamma_half_integer_ladder():
    sqrt_pi = math.sqrt(math.pi)
    assert gamma_half_integer(0) == pytest.approx(sqrt_pi, rel=1e-15)
    assert gamma_half_integer(1) == pytest.approx(0.5 * sqrt_pi, rel=1e-15)
    assert gamma_half_integer(2) == pytest.approx(0.75 * sqrt_pi, rel=1e-15)
    for k in range(0, 30):
        assert gamma_half_integer(k) == pytest.approx(float(special.gamma(k + 0.5)), rel=1e-13)


def test_gamma_half_integer_rejects_negative():
    with pytest.raises(ValueError):
        gamma_half_integer(-1)
