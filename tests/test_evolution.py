"""Operator tests: autoconvolution, one-step images, iteration, transforms.

Expected values come from three independent routes: analytic convolutions
of simple shapes, the closed-form family images, and a direct 2-D adaptive
quadrature of the double-integral definition of the operator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from wealthgas import (
    Density,
    FamilySpec,
    MassDefectError,
    apply_operator,
    autoconvolve,
    characteristic_function,
    closed_form_step,
    fixed_point_ode_residual,
    iterate_operator,
    l1_distance,
    make_grid,
    matched_exponential,
    quad_mean,
    quad_norm,
    sample_family,
    triangle_density,
    write_reports_csv,
)
from wealthgas import evolution
from wealthgas.evolution import REPORT_CSV_HEADER, derivative_chain, extrapolated_to_zero
from wealthgas.grid import DegenerateDensityError, normalized
from wealthgas.verify import random_density, random_pdf

GRID = make_grid(4097, 40.0)


def expo(grid, alpha=1.0):
    return sample_family(FamilySpec("exponential", alpha=alpha), grid)


# ---------------------------------------------------------------- autoconvolve


def test_autoconvolve_exponential_analytic():
    # (e^-x * e^-x)(r) = r e^-r; the sampled exponential makes the trapezoid
    # convolution exact, so agreement is near machine level
    y = Density(GRID, np.exp(-GRID.nodes))
    c = autoconvolve(y)
    k = int(round(1.0 / GRID.spacing))
    r = k * GRID.spacing
    assert c[k] == pytest.approx(r * math.exp(-r), rel=1e-9)


def test_autoconvolve_box_gives_triangle():
    # (1_[0,1] * 1_[0,1])(r) = r on [0, 1]
    g = make_grid(2049, 4.0)
    y = Density(g, (g.nodes <= 1.0).astype(float))
    c = autoconvolve(y)
    k = int(round(0.5 / g.spacing))
    assert abs(c[k] - 0.5) <= 2 * g.spacing


def test_autoconvolve_zero_at_origin():
    rng = np.random.default_rng(2)
    y = Density(GRID, rng.random(GRID.n_points))
    assert autoconvolve(y)[0] == 0.0


def _direct_weighted_autoconv(y):
    # the O(N^2) reference sum A_m = sum_{i+j=m} w_i w_j y_i y_j
    a = y.grid.trap_weights * y.values
    return np.convolve(a, a)


def test_apply_operator_matches_direct_sum(monkeypatch):
    rng = np.random.default_rng(6)
    y = random_pdf(GRID, rng)
    fft = apply_operator(y)
    monkeypatch.setattr(evolution, "_weighted_autoconv", _direct_weighted_autoconv)
    assert l1_distance(apply_operator(y), fft) <= 1e-10


def _assert_every_entry_matches_direct_sum(n, seed):
    # uniform random samples keep the last one of order one, so the entry
    # a_{N-1}^2 that the circular even half wraps onto A_0 at N = L+1 is
    # visible, and a missing one-sample delay on the odd samples' square
    # moves every even entry
    rng = np.random.default_rng(seed)
    y = Density(make_grid(n, 40.0), rng.random(n))
    direct = _direct_weighted_autoconv(y)
    got = evolution._weighted_autoconv(y)
    assert got.shape == direct.shape == (2 * n - 1,)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(direct)


@pytest.mark.parametrize("n", [4097, 4096, 3000, 17, 16])
def test_weighted_autoconv_matches_direct_sum_on_every_entry(n):
    # odd and even N, at and off N = L+1 (L = 4096 or 16).  Measured max
    # error 1e-16 to 8e-16 of max A: the bound has over 100x margin
    _assert_every_entry_matches_direct_sum(n, n)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(16, 600) | st.sampled_from([2**k + 1 for k in range(4, 10)]),
       st.integers(0, 2**32 - 1))
def test_weighted_autoconv_matches_direct_sum_for_any_size(n, seed):
    # sizes N = 2^k+1, where the even half wraps, are drawn on purpose
    _assert_every_entry_matches_direct_sum(n, seed)


@pytest.mark.parametrize("n,size", [(4097, 4096), (4096, 4096), (3000, 4096)])
def test_operator_fft_length(monkeypatch, n, size):
    # the even and odd samples take two forward and two inverse real
    # transforms, each at the next power of two >= N-1
    lengths = []

    def recording(transform):
        def call(a, length=None, *args, **kwargs):
            lengths.append(length)
            return transform(a, length, *args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", recording(np.fft.irfft))
    apply_operator(expo(make_grid(n, 40.0)))
    assert lengths == [size] * 4


# ---------------------------------------------------------------- apply_operator


def test_zero_maps_to_zero():
    y = Density(GRID, np.zeros(GRID.n_points))
    assert np.all(apply_operator(y).values == 0.0)


def test_apply_operator_leaves_its_input_untouched():
    # the step works in place in its own buffer, never in the input's
    # values or the grid's shared node and weight arrays
    y = random_pdf(GRID, np.random.default_rng(8))
    values, nodes, weights = y.values.copy(), GRID.nodes.copy(), GRID.trap_weights.copy()
    apply_operator(y)
    assert np.array_equal(y.values, values)
    assert np.array_equal(GRID.nodes, nodes)
    assert np.array_equal(GRID.trap_weights, weights)


def test_gamma_image_matches_closed_form():
    # closed form of the first gamma-family step is the oracle; a finer grid
    # is used because the conservative trapezoid scheme carries an O(h^2)
    # shape bias of ~4e-5 at 4097 nodes
    spec = FamilySpec("gamma", alpha=1.0, n=1)
    g = make_grid(32769, 80.0)
    num = apply_operator(sample_family(spec, g))
    oracle = closed_form_step(spec, g)
    assert l1_distance(num, oracle) <= 1e-5
    assert num.values[0] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_image_against_2d_quadrature_oracle():
    # direct adaptive quadrature of T y(x) = int int_{u+v>x} y(u)y(v)/(u+v)
    # for y = x e^{-x} at a few x values
    def oracle(xq):
        def inner(u):
            lo = max(0.0, xq - u)
            val, _ = integrate.quad(
                lambda v: v * math.exp(-v) / (u + v), lo, 60.0, limit=200
            )
            return u * math.exp(-u) * val

        val, _ = integrate.quad(inner, 1e-12, 60.0, limit=200)
        return val

    g = make_grid(32769, 80.0)
    num = apply_operator(sample_family(FamilySpec("gamma", alpha=1.0, n=1), g))
    for xq in (0.0, 1.0, 3.5):
        k = int(round(xq / g.spacing))
        assert num.values[k] == pytest.approx(oracle(g.nodes[k]), abs=2e-6)


def test_image_smooths_under_refinement():
    # continuity evidence: the largest jump between adjacent nodes of the
    # image of a kinked input shrinks ~linearly with the spacing
    jumps = []
    for n in (513, 1025, 2049):
        g = make_grid(n, 40.0)
        img = apply_operator(triangle_density(g, 1.0)).values
        jumps.append(float(np.max(np.abs(np.diff(img)))))
    assert jumps[2] < jumps[1] < jumps[0]
    order = math.log2(jumps[0] / jumps[2]) / 2.0
    assert 0.7 <= order <= 1.3


def _raw_moment(y, k):
    return float(y.grid.trap_weights @ (y.grid.nodes**k * y.values))


def test_higher_moment_recursion():
    # independent oracle for the full action of the operator: integrating
    # x^k over the pair-splitting double integral gives
    #   m_k(Ty) = (1/(k+1)) sum_j C(k,j) m_j(y) m_{k-j}(y)
    # which pins every moment of the image, not just mass and mean
    rng = np.random.default_rng(16)
    for _ in range(5):
        y = random_pdf(GRID, rng)
        ty = apply_operator(y)
        m = [_raw_moment(y, k) for k in range(5)]
        for k in (2, 3, 4):
            predicted = sum(math.comb(k, j) * m[j] * m[k - j] for j in range(k + 1)) / (k + 1)
            assert _raw_moment(ty, k) == pytest.approx(predicted, rel=1e-4)


def test_second_moment_mismatch_contracts_by_two_thirds():
    # the second-moment recursion linearizes to a contraction factor of
    # exactly 2/3, which sets the asymptotic convergence rate toward the
    # exponential (whose second moment is 2 m1^2)
    y = triangle_density(GRID, 1.0)
    mismatch = _raw_moment(y, 2) - 2.0 * _raw_moment(y, 1) ** 2
    for _ in range(6):
        y = apply_operator(y)
        new_mismatch = _raw_moment(y, 2) - 2.0 * _raw_moment(y, 1) ** 2
        assert new_mismatch / mismatch == pytest.approx(2.0 / 3.0, rel=1e-3)
        mismatch = new_mismatch


def test_tail_health_rejects_fat_domain_overflow():
    # a shape still O(1) at x_max must fail loudly
    from wealthgas.evolution import TruncationHealthError

    g = make_grid(1025, 10.0)
    y = Density(g, np.exp(-0.05 * g.nodes))
    with pytest.raises(TruncationHealthError):
        apply_operator(y)


@pytest.mark.parametrize("c", [1e-160, 1e160])
def test_operator_commutes_with_dilation(c):
    # y_c(x) = y(x/c)/c has image T(y)(x/c)/c; the step forms h*g with no
    # power of h, so extreme spacings neither overflow nor underflow
    rng = np.random.default_rng(21)
    y = random_pdf(GRID, rng)
    y_c = Density(make_grid(GRID.n_points, c * GRID.x_max), y.values / c)
    ty = apply_operator(y).values
    diff = np.abs(c * apply_operator(y_c).values - ty)
    assert diff.max() <= 1e-13 * ty.max()


def test_operator_works_at_minimum_grid():
    # conservation is algebraic, so it holds even on the coarsest legal grid
    g = make_grid(16, 40.0)
    y = expo(g)
    ty = apply_operator(y)
    assert abs(quad_norm(ty) - quad_norm(y) ** 2) < 1e-13
    assert l1_distance(ty, y) < 1e-12


# ---------------------------------------------------------------- iterate


def test_iterate_exponential_stays_put():
    y0 = expo(GRID)
    _, reports = iterate_operator(y0, 3)
    for r in reports:
        assert r.dist_to_target < 1e-5
        assert r.norm == pytest.approx(1.0, abs=1e-12)


def test_iterate_triangle_contracts_monotonically():
    y0 = triangle_density(GRID, 1.0)
    _, reports = iterate_operator(y0, 10)
    dists = [r.dist_to_target for r in reports]
    deltas = [r.step_delta for r in reports]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    # asymptotic contraction factor of the slowest surviving moment mode is 2/3
    tail_ratios = [dists[i + 1] / dists[i] for i in range(6, 9)]
    for ratio in tail_ratios:
        assert 0.60 <= ratio <= 0.72


def test_iterate_norm_sequence_of_subunit_mass():
    # mass 0.5 squares away: 0.25, 0.0625, ... on its way to the zero fixed point
    y0 = expo(GRID).scaled(0.5)
    _, reports = iterate_operator(y0, 3)
    assert reports[0].norm == pytest.approx(0.25, rel=1e-12)
    assert reports[1].norm == pytest.approx(0.0625, rel=1e-12)
    assert reports[2].norm == pytest.approx(0.0625**2, rel=1e-12)


def test_iterate_rejects_zero_start():
    y0 = Density(GRID, np.zeros(GRID.n_points))
    with pytest.raises(DegenerateDensityError):
        iterate_operator(y0, 2)


def test_iterate_signals_mass_defect():
    # mean-8 exponential on a domain of 5 means: the start fails the tail rule
    g = make_grid(1025, 40.0)
    y0 = expo(g, alpha=0.125)
    with pytest.raises(MassDefectError):
        iterate_operator(y0, 1)


def test_iterate_signals_mass_defect_at_a_step():
    # the box at [25, 30] pushes 2.7e-7 of T(y)'s mass past x_max, under the budget
    g = make_grid(4097, 40.0)
    x = g.nodes
    w = 1e-3
    y0 = normalized(Density(g, (1 - w) * 2 * np.exp(-2 * x) + w * ((x >= 25) & (x <= 30)) / 5))
    _, reports = iterate_operator(y0, 3)
    assert len(reports) == 3
    assert reports[0].mass_defect == pytest.approx(2.7276e-7, rel=1e-4)
    # a box at [600, 700] on [0, 1000] passes the tail rule but loses 3.7e-6 at once
    g = make_grid(65537, 1000.0)
    x = g.nodes
    w = 4e-3
    y0 = normalized(Density(g, (1 - w) * 2 * np.exp(-2 * x) + w * ((x >= 600) & (x <= 700)) / 100))
    with pytest.raises(MassDefectError, match=r"^mass defect 3\.680e-06 > 1e-06 at step 1; increase x_max$"):
        iterate_operator(y0, 3)


def test_iterate_names_the_mass_law_for_a_non_unit_start():
    # a step maps mass c to c**2: from mass 1.5 the rounding of a mass of 1.5**128 passes the
    # defect budget at step 7, and a larger domain would not help
    y0 = triangle_density(make_grid(4097, 40.0), 1.0).scaled(1.5)
    with pytest.raises(MassDefectError, match=(
            r"^mass defect 4\.194e\+06 > 1e-06 at step 7; the start's mass is 1\.5, not 1: a step maps "
            r"mass c to c\*\*2, so it is now 3\.465e\+22 and the defect is rounding, not loss past x_max; "
            r"normalize the start$")):
        iterate_operator(y0, 10)


def test_iterate_reports_the_exact_mass_defect():
    # the doubled-domain image built independently: direct-sum convolution,
    # h*g steps and right-to-left trapezoid sums; its mass on (x_max, 2 x_max]
    # is what the step pushed past x_max
    g = make_grid(4097, 25.0)
    y = sample_family(FamilySpec("gamma", alpha=1.0, n=1), g)
    h = g.spacing
    a = g.trap_weights * y.values
    conv = np.convolve(a, a)
    hg = np.empty_like(conv)
    hg[0] = h * y.values[0] ** 2
    hg[1:] = conv[1:] / (h * np.arange(1.0, len(conv)))
    image = np.append(np.cumsum((0.5 * (hg[:-1] + hg[1:]))[::-1])[::-1], 0.0)

    def trapezoid(v):
        return h * (v.sum() - 0.5 * (v[0] + v[-1]))

    pushed = trapezoid(image) - trapezoid(image[: g.n_points])
    _, reports = iterate_operator(y, 1)
    assert pushed > 1e-9
    assert reports[0].mass_defect == pytest.approx(pushed, rel=0.0, abs=1e-15)


def test_iterate_rejects_a_nonpositive_step_count():
    with pytest.raises(ValueError, match="n_steps must be positive, got 0"):
        iterate_operator(expo(GRID), 0)


def test_iterate_early_stop():
    y0 = expo(GRID)
    densities, reports = iterate_operator(y0, 50, early_stop_delta=1e-9)
    assert len(reports) < 50
    assert reports[-1].step_delta < 1e-9
    assert len(densities) == len(reports) + 1


@pytest.mark.parametrize("delta", [math.nan, 0.0, -1.0])
def test_iterate_rejects_stop_delta_that_cannot_stop(delta):
    with pytest.raises(ValueError, match="early_stop_delta"):
        iterate_operator(expo(GRID), 3, early_stop_delta=delta)


def test_reports_csv_header_and_values(tmp_path):
    y0 = triangle_density(GRID, 1.0)
    _, reports = iterate_operator(y0, 2)
    path = tmp_path / "report.csv"
    write_reports_csv(path, reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_CSV_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(reports[0].norm, rel=1e-16)


def test_matched_exponential_hits_requested_mean():
    for mean in (0.5, 1.0, 2.5):
        t = matched_exponential(GRID, mean)
        assert quad_norm(t) == pytest.approx(1.0, abs=1e-13)
        assert quad_mean(t) == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("mean", [0.001, 100.0])
def test_matched_exponential_rejects_unreachable_mean(mean):
    # 0.001 is far below the node spacing (the rate search used to end at
    # mean 0.892); 100 exceeds x_max/2, the mean of the flattest decreasing
    # exponential on [0, 40] (it used to end at 20.0)
    with pytest.raises(ValueError, match="rate search ended"):
        matched_exponential(GRID, mean)


def test_matched_exponential_rejects_a_nonpositive_mean():
    with pytest.raises(ValueError, match="mean must be positive, got 0.0"):
        matched_exponential(GRID, 0.0)


def test_iterate_rejects_unmatchable_target():
    # a bump at x = 30 has mean 30 > x_max/2, so there is no target to
    # measure dist_to_target against; the run must stop, not report a
    # distance to the wrong exponential
    y0 = Density(GRID, np.maximum(0.0, 1.0 - np.abs(GRID.nodes - 30.0) / 5.0))
    with pytest.raises(ValueError, match="rate search ended"):
        iterate_operator(y0, 1)


# ---------------------------------------------------------------- transforms


def test_characteristic_function_at_zero_is_norm():
    rng = np.random.default_rng(14)
    y = random_density(GRID, rng)
    val = characteristic_function(y, 0.0)[0]
    assert val.real == pytest.approx(quad_norm(y), rel=1e-14)
    assert val.imag == pytest.approx(0.0, abs=1e-14)


def test_characteristic_function_exponential_closed_form():
    # ybar(p) = 1/(1 - i p / alpha); at alpha = 1, p = 1 this is (1 + i)/2.
    # trapezoid bias on the oscillatory integrand is ~1.3e-5 at this grid
    y = Density(GRID, np.exp(-GRID.nodes))
    val = characteristic_function(y, 1.0)[0]
    assert abs(val - (0.5 + 0.5j)) < 5e-5


def test_characteristic_function_conjugate_symmetry():
    rng = np.random.default_rng(15)
    y = random_pdf(GRID, rng)
    ps = np.array([0.3, 1.1, 4.0])
    plus = characteristic_function(y, ps)
    minus = characteristic_function(y, -ps)
    np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-13)


def test_ode_residual_derivative_by_quadrature():
    # ybar' = i * (transform of x y): on the sampled e^-x it meets the analytic
    # i/(1 - ip)^2 to second order in the spacing, and at p = 0 the residual
    # reads |norm - norm^2|
    p = np.array([0.5, 1.0, 2.0])
    errors = []
    for n in (4097, 16385):
        g = make_grid(n, 40.0)
        y = Density(g, np.exp(-g.nodes))
        dphi = 1j * characteristic_function(Density(g, g.nodes * y.values), p)
        errors.append(float(np.max(np.abs(dphi - 1j / (1.0 - 1j * p) ** 2))))
        norm = quad_norm(y)
        assert fixed_point_ode_residual(y, [0.0])[0] == pytest.approx(abs(norm - norm**2), abs=1e-15)
    assert errors[0] <= 1e-5
    assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_derivative_at_zero_exponential():
    y = matched_exponential(GRID, 1.0)
    # y ~ e^-x so the m-th derivative at 0 is (-1)^m
    for m, d in enumerate(extrapolated_to_zero(derivative_chain(y))):
        assert d == pytest.approx((-1.0) ** m, rel=5e-4)


def test_derivative_at_zero_rejects_a_coarse_grid():
    with pytest.raises(ValueError, match="grid too coarse for derivative extrapolation"):
        extrapolated_to_zero(derivative_chain(expo(make_grid(32, 10.0))))
