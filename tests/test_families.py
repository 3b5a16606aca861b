"""Family sampling, closed-form steps, and contraction reproduction."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wealthgas import (
    DegenerateDensityError,
    FamilySpec,
    apply_operator,
    closed_form_step,
    contraction_check,
    evaluate_family,
    family_mean,
    l1_distance,
    make_grid,
    quad_mean,
    quad_norm,
    sample_family,
    triangle_density,
)
from wealthgas.families import PARAMETER_LATTICE, FamilyKind, _coefficient_step, closed_form_step_values


def grid_for(spec, n_points=4097):
    return make_grid(n_points, 40.0 * family_mean(spec))


def spec_id(spec):
    return "-".join(str(v) for v in (spec.kind.value, spec.alpha, spec.beta, spec.n, spec.eps))


every_lattice_member = pytest.mark.parametrize("spec", PARAMETER_LATTICE, ids=spec_id)


# ---------------------------------------------------------------- sampling


def test_exponential_pointwise_value_at_zero():
    spec = FamilySpec("exponential", alpha=1.0)
    assert evaluate_family(spec, np.array([0.0]))[0] == 1.0
    y = sample_family(spec, grid_for(spec))
    assert y.values[0] == pytest.approx(1.0, abs=1e-4)


def test_gamma_zero_and_peak():
    # alpha^2 x e^(-alpha x) peaks at x = n/alpha = 1/2 with value 2/e
    spec = FamilySpec("gamma", alpha=2.0, n=1)
    vals = evaluate_family(spec, np.array([0.0, 0.5]))
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(2.0 / math.e, rel=1e-14)


def test_epsmix_collapses_to_exponential_at_eps_zero():
    x = np.linspace(0.0, 20.0, 101)
    a = evaluate_family(FamilySpec("epsmix", alpha=1.5, n=3, eps=0.0), x)
    b = evaluate_family(FamilySpec("exponential", alpha=1.5), x)
    np.testing.assert_allclose(a, b, rtol=1e-15)


def test_sampled_families_have_unit_mass():
    for spec in (
        FamilySpec("exponential", alpha=2.0),
        FamilySpec("gamma", alpha=1.0, n=2),
        FamilySpec("mix", alpha=1.0, beta=3.0),
        FamilySpec("epsmix", alpha=1.0, n=1, eps=0.5),
    ):
        y = sample_family(spec, grid_for(spec))
        assert quad_norm(y) == pytest.approx(1.0, abs=1e-8)


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("exponential", alpha=0.0)
    with pytest.raises(ValueError):
        FamilySpec("gamma", alpha=1.0, n=-1)
    for n in (math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            FamilySpec("gamma", alpha=1.0, n=n)
    with pytest.raises(ValueError):
        FamilySpec("mix", alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        FamilySpec("mix", alpha=1.0, beta=-2.0)
    with pytest.raises(ValueError):
        FamilySpec("epsmix", alpha=1.0, n=1, eps=1.5)
    for rate in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            FamilySpec("exponential", alpha=rate)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            FamilySpec("mix", alpha=1.0, beta=rate)


def test_order_cap_matches_closed_form_step():
    # n = 40, whose step sums 2n + 1 = 81 terms, is the largest order
    spec = FamilySpec("gamma", alpha=1.0, n=40)
    ty = closed_form_step(spec, grid_for(spec))
    assert np.all(np.isfinite(ty.values))
    assert quad_norm(ty) == pytest.approx(1.0, abs=1e-12)
    for kind in ("gamma", "epsmix"):
        with pytest.raises(ValueError):
            FamilySpec(kind, alpha=1.0, n=41, eps=0.5)


@pytest.mark.parametrize("rate", [0.5, 2.0])
def test_gamma_density_against_a_40_digit_oracle(rate):
    # r^(n+1) x^n e^(-r x)/n! in 40-digit decimal arithmetic at the same doubles x, over
    # r x in (0, 600]; the term recurrence stays within 4e-15 relative at every order
    x = np.linspace(0.0, 600.0 / rate, 151)[1:]
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(rate)
        for n in range(1, 41):
            got = evaluate_family(FamilySpec("gamma", alpha=rate, n=n), x)
            for g, v in zip(got.tolist(), x.tolist()):
                exact = r ** (n + 1) * Decimal(v) ** n * (-r * Decimal(v)).exp() / math.factorial(n)
                worst = max(worst, float(abs(Decimal(g) - exact) / exact))
    assert worst <= 4e-15


def test_closed_forms_reject_negative_x():
    x = np.array([0.5, -0.25, 1.0])
    for spec in (FamilySpec("exponential"), FamilySpec("epsmix", n=2, eps=0.5), FamilySpec("mix", beta=3.0)):
        for closed_form in (evaluate_family, closed_form_step_values):
            with pytest.raises(ValueError, match="the closed forms need x >= 0"):
                closed_form(spec, x)


# ---------------------------------------------------------------- means


def test_family_means_closed_forms():
    assert family_mean(FamilySpec("gamma", alpha=2.0, n=1)) == 1.0
    assert family_mean(FamilySpec("epsmix", alpha=1.0, n=2, eps=0.5)) == 2.0
    assert family_mean(FamilySpec("exponential", alpha=4.0)) == 0.25


def test_mix_mean_matches_quadrature():
    # the mix mean is (1/alpha + 1/beta)/2, confirmed by the sampled moment
    # even for nearly equal rates
    spec = FamilySpec("mix", alpha=1.0, beta=1.0 + 1e-9)
    assert family_mean(spec) == pytest.approx(0.5 * (1.0 + 1.0 / (1.0 + 1e-9)), rel=1e-15)
    y = sample_family(spec, make_grid(4097, 40.0))
    assert quad_mean(y) == pytest.approx(family_mean(spec), abs=5e-5)


@every_lattice_member
def test_gamma_mean_matches_quadrature(spec):
    # sum_k w_k (n_k+1)/r_k against the sampled moment of every lattice
    # member; the O(h^2) bias peaks near 4.1e-6 relative (order-0 members)
    y = sample_family(spec, grid_for(spec, n_points=16385))
    assert quad_mean(y) == pytest.approx(family_mean(spec), rel=5e-5)


# ---------------------------------------------------------------- closed forms


def test_order_zero_members_are_their_own_image():
    # the coefficients [1.0] step to [1.0 * 1.0 / 1]: the exponential's image is
    # its own sample, bit for bit after normalization
    order_zero = [FamilySpec("exponential", alpha=a) for a in (0.5, 1.0, 2.0)]
    order_zero += [s for s in PARAMETER_LATTICE if s.kind is FamilyKind.GAMMA and s.n == 0]
    assert len(order_zero) == 6
    for spec in order_zero:
        g = grid_for(spec)
        assert np.array_equal(closed_form_step(spec, g).values, sample_family(spec, g).values)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["exponential", "gamma", "epsmix"]), st.floats(1e-3, 1e3),
       st.floats(0.0, 1.0))
def test_every_order_zero_member_is_its_own_image_bit_for_bit(kind, alpha, eps):
    # (1 - eps) + eps rounds to 1.0 for every eps in [0, 1], so each order-0 member's
    # coefficients are [1.0], which the step keeps; no special case is needed
    spec = FamilySpec(kind, alpha=alpha, n=0, eps=eps)
    g = grid_for(spec, n_points=257)
    assert np.array_equal(closed_form_step_values(spec, g.nodes), evaluate_family(spec, g.nodes))
    res = contraction_check(spec, g)
    assert res.d_after == res.d_before
    assert not res.contracted


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=41))
def test_coefficient_step_squares_the_mass_and_keeps_the_mean(c):
    # sum_k (Tc)_k = (sum_k c_k)^2, and gamma_k has mean (k+1)/r, so a unit-mass
    # vector keeps sum_k (k+1) c_k
    c = np.array(c)
    mass = c.sum()
    tc = _coefficient_step(c)
    assert len(tc) == 2 * len(c) - 1
    assert tc.sum() == pytest.approx(mass**2, rel=1e-13, abs=1e-300)
    if mass > 0.0:
        u = c / mass
        order = np.arange(1, 2 * len(c))
        assert _coefficient_step(u) @ order == pytest.approx(u @ order[:len(c)], rel=1e-13)


def test_gamma_step_value_at_zero():
    # sqrt(pi) Gamma(3) / (2^3 1! Gamma(5/2)) = 1/3 for alpha = 1, n = 1
    spec = FamilySpec("gamma", alpha=1.0, n=1)
    y = closed_form_step(spec, grid_for(spec))
    assert y.values[0] == pytest.approx(1.0 / 3.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7])
def test_gamma_step_at_zero_is_exact(alpha):
    # the duplication formula reduces sqrt(pi) (2n)! / (2^(2n+1) n! Gamma(n+3/2))
    # to 1/(2n+1), so T(gamma_{alpha,n})(0) = alpha/(2n+1) with nothing to round
    for n in range(41):
        got = closed_form_step_values(FamilySpec("gamma", alpha=alpha, n=n), [0.0])[0]
        assert got == pytest.approx(alpha / (2 * n + 1), rel=1e-15, abs=0.0)


def test_gamma_step_scipy_oracle():
    spec = FamilySpec("gamma", alpha=2.0, n=3)
    x = np.array([0.0, 0.4, 2.1, 9.0])
    got = closed_form_step_values(spec, x)
    pref = 2.0 * math.sqrt(math.pi) / (2**7 * math.factorial(3) * special.gamma(4.5))
    oracle = pref * special.gammaincc(7, 2.0 * x) * special.gamma(7)
    np.testing.assert_allclose(got, oracle, rtol=1e-12)


def test_mix_step_zero_limit():
    # x -> 0 limit of the mix image: (alpha + beta + 2 alpha beta/(alpha-beta) ln(alpha/beta))/4,
    # cross-checked numerically just off the origin
    alpha, beta = 1.0, 3.0
    spec = FamilySpec("mix", alpha=alpha, beta=beta)
    limit = 0.25 * (alpha + beta + 2 * alpha * beta / (alpha - beta) * math.log(alpha / beta))
    vals = closed_form_step_values(spec, np.array([0.0, 1e-8]))
    assert vals[0] == pytest.approx(limit, rel=1e-12)
    assert vals[1] == pytest.approx(limit, rel=1e-6)


@pytest.mark.parametrize("alpha, beta", [(1.0, 3.0), (0.5, 1.5), (2.0, 3.0)])
def test_mix_step_scipy_oracle(alpha, beta):
    # (alpha e^(-alpha x) + beta e^(-beta x)
    #  + 2 alpha beta/(alpha-beta) (E1(beta x) - E1(alpha x))) / 4 away from the origin
    x = np.array([1e-3, 0.4, 2.1, 9.0, 30.0])
    got = closed_form_step_values(FamilySpec("mix", alpha=alpha, beta=beta), x)
    cross = 2 * alpha * beta / (alpha - beta) * (special.exp1(beta * x) - special.exp1(alpha * x))
    oracle = 0.25 * (alpha * np.exp(-alpha * x) + beta * np.exp(-beta * x) + cross)
    np.testing.assert_allclose(got, oracle, rtol=1e-13)


def test_epsmix_step_reduces_to_gamma_at_eps_one():
    x = np.linspace(0.0, 30.0, 301)
    a = closed_form_step_values(FamilySpec("epsmix", alpha=1.0, n=2, eps=1.0), x)
    b = closed_form_step_values(FamilySpec("gamma", alpha=1.0, n=2), x)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_epsmix_step_matches_combined_published_form():
    # the coefficient step must equal the single combined expression
    # alpha {1 + e [e - 2 + 2(1-e)/(n+1)! e^(ax) G(n+1,ax)
    #               + e sqrt(pi)/(4^n n!) e^(ax) G(2n+1,ax)/(2 G(n+3/2))]} e^(-ax)
    for (eps, alpha, n) in ((0.5, 1.0, 2), (0.25, 2.0, 1), (0.75, 0.5, 5)):
        x = np.array([0.0, 0.3, 1.0, 3.7, 10.0])
        got = closed_form_step_values(FamilySpec("epsmix", alpha=alpha, n=n, eps=eps), x)
        ax = alpha * x
        eg_n1 = np.exp(ax) * special.gammaincc(n + 1, ax) * special.gamma(n + 1)
        eg_2n1 = np.exp(ax) * special.gammaincc(2 * n + 1, ax) * special.gamma(2 * n + 1)
        bracket = (
            eps
            - 2.0
            + 2.0 * (1 - eps) / math.factorial(n + 1) * eg_n1
            + eps * math.sqrt(math.pi) / (4**n * math.factorial(n)) * eg_2n1 / (2 * special.gamma(n + 1.5))
        )
        oracle = alpha * (1.0 + eps * bracket) * np.exp(-ax)
        np.testing.assert_allclose(got, oracle, rtol=1e-12)


@every_lattice_member
def test_closed_form_steps_conserve_mass_and_mean(spec):
    # quadrature bias on the mean is O(h^2) * image(0); 16385 nodes put it
    # near 2.9e-6 relative for the worst lattice member
    ty = closed_form_step(spec, grid_for(spec, n_points=16385))
    assert quad_norm(ty) == pytest.approx(1.0, abs=1e-6)
    assert quad_mean(ty) == pytest.approx(family_mean(spec), rel=1e-5)


def test_oracle_agreement_representative_points():
    # numerical operator vs closed forms; the O(h^2) bias of the conservative
    # scheme sits near 3e-6 at this resolution for the worst member
    for spec in (
        FamilySpec("gamma", alpha=2.0, n=1),
        FamilySpec("gamma", alpha=0.5, n=5),
        FamilySpec("mix", alpha=1.0, beta=3.0),
        FamilySpec("epsmix", alpha=1.0, n=1, eps=0.75),
    ):
        g = grid_for(spec, n_points=16385)
        num = apply_operator(sample_family(spec, g))
        assert l1_distance(num, closed_form_step(spec, g)) <= 5e-6


# ---------------------------------------------------------------- contraction


def test_contraction_on_mini_lattice():
    for spec in (
        FamilySpec("gamma", alpha=2.0, n=1),
        FamilySpec("mix", alpha=1.0, beta=3.0),
        FamilySpec("epsmix", alpha=1.0, n=2, eps=0.5),
    ):
        res = contraction_check(spec, grid_for(spec))
        assert res.contracted
        assert 0.0 < res.d_after < res.d_before


def test_contraction_exponential_degenerate():
    spec = FamilySpec("exponential", alpha=1.0)
    res = contraction_check(spec, grid_for(spec))
    assert res.d_before == res.d_after == 0.0
    assert not res.contracted
    assert res.oracle_l1_gap <= 1e-12
    # order-0 gamma and epsilon members are the exponential too: their
    # distances coincide exactly instead of differing at rounding level
    order_zero = [s for s in PARAMETER_LATTICE if s.n == 0]
    assert len(order_zero) == 12
    for spec in order_zero:
        res = contraction_check(spec, grid_for(spec))
        assert res.d_before == res.d_after
        assert not res.contracted
        assert res.oracle_l1_gap <= 1e-12


def test_contraction_check_reports_oracle_gap():
    spec = FamilySpec("gamma", alpha=2.0, n=1)
    g = grid_for(spec)
    res = contraction_check(spec, g)
    num = apply_operator(sample_family(spec, g))
    assert res.oracle_l1_gap == l1_distance(num, closed_form_step(spec, g))


def test_lattice_composition():
    kinds = [s.kind for s in PARAMETER_LATTICE]
    assert kinds.count(FamilyKind.GAMMA) == 12
    assert kinds.count(FamilyKind.TWO_EXP_MIX) == 6
    assert kinds.count(FamilyKind.EPSILON_MIX) == 36


# ---------------------------------------------------------------- triangle


def test_triangle_density_shape():
    g = make_grid(4097, 40.0)
    tri = triangle_density(g, 1.0)
    assert quad_norm(tri) == pytest.approx(1.0, abs=1e-12)
    assert quad_mean(tri) == pytest.approx(1.0, abs=1e-4)
    peak = int(round(1.0 / g.spacing))
    assert tri.values[peak] == max(tri.values)
    assert np.all(tri.values[g.nodes > 2.0] == 0.0)


def test_triangle_requires_room():
    with pytest.raises(ValueError):
        triangle_density(make_grid(64, 2.0), 1.0)


def test_triangle_rejects_a_nonpositive_mean():
    with pytest.raises(ValueError, match="mean must be positive, got 0.0"):
        triangle_density(make_grid(64, 2.0), 0.0)


def test_zero_mass_samples_raise_degenerate_density():
    # the triangle on [0, 2] falls between nodes 2 apart; the closed-form
    # image, of order alpha at x = 0, underflows when multiplied by a
    # spacing of order 1e-301
    with pytest.raises(DegenerateDensityError, match=r"Grid\(n_points=21, x_max=40.0\)"):
        triangle_density(make_grid(21, 40.0), 1.0)
    spec = FamilySpec("gamma", alpha=1e-300, n=1)
    with pytest.raises(DegenerateDensityError, match=r"x_max=1e-300"):
        closed_form_step(spec, make_grid(16, 1e-300))
