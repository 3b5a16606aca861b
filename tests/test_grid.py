"""Grid, density, and quadrature tests against analytic oracles."""

import math

import numpy as np
import pytest

from wealthgas import (
    DegenerateDensityError,
    Density,
    GridMismatchError,
    l1_distance,
    make_grid,
    quad_mean,
    quad_norm,
    read_density_csv,
    tail_mass_estimate,
    write_density_csv,
)
from wealthgas.grid import normalized


def sampled(grid, fn):
    return Density(grid, fn(grid.nodes))


def test_make_grid_spacing():
    assert make_grid(16, 15.0).spacing == pytest.approx(1.0, abs=0.0)
    assert make_grid(4097, 40.0).spacing == pytest.approx(40.0 / 4096, abs=0.0)


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(8, 10.0)
    with pytest.raises(ValueError):
        make_grid(64, 0.0)
    with pytest.raises(ValueError):
        make_grid(64, -1.0)
    with pytest.raises(ValueError):
        make_grid(64, math.inf)
    with pytest.raises(ValueError):
        make_grid(64, math.nan)


def test_grid_endpoints_exact():
    g = make_grid(4097, 40.0)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 40.0


def test_grid_arrays_are_shared_and_read_only():
    g = make_grid(65, 10.0)
    for get in (lambda: g.nodes, g.trap_weights):
        first = get()
        assert get() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[1] = 0.0
    assert np.array_equal(g.nodes, np.linspace(0.0, 10.0, 65))
    assert np.array_equal(g.trap_weights(), np.r_[0.5, np.ones(63), 0.5] * g.spacing)
    # built arrays do not enter equality or hashing
    assert g == make_grid(65, 10.0) and hash(g) == hash(make_grid(65, 10.0))


def test_normalized_scales_to_the_requested_mass():
    g = make_grid(65, 10.0)
    y = sampled(g, lambda x: np.exp(-x))
    assert np.array_equal(normalized(y).values, y.scaled(1.0 / quad_norm(y)).values)
    assert np.array_equal(normalized(y, 0.5).values, y.scaled(0.5 / quad_norm(y)).values)


def test_normalized_rejects_zero_mass_naming_the_grid():
    g = make_grid(16, 40.0)
    with pytest.raises(DegenerateDensityError, match=r"Grid\(n_points=16, x_max=40.0\)"):
        normalized(Density(g, np.zeros(16)))


def test_grid_equality_is_by_parameters():
    assert make_grid(64, 10.0) == make_grid(64, 10.0)
    assert make_grid(64, 10.0) != make_grid(65, 10.0)
    assert make_grid(64, 10.0) != make_grid(64, 11.0)


def test_density_rejects_negative_values():
    g = make_grid(16, 15.0)
    vals = np.ones(16)
    vals[3] = -1e-9
    with pytest.raises(ValueError):
        Density(g, vals)


def test_density_values_are_immutable():
    g = make_grid(16, 15.0)
    y = Density(g, np.ones(16))
    with pytest.raises(ValueError):
        y.values[0] = 2.0


def test_quad_norm_exponential_against_analytic_integral():
    # oracle: integral_0^40 e^(-x) dx = 1 - e^(-40); composite trapezoid on a
    # smooth integrand carries an O(h^2) bias, here (h^2/12)|f'(0)| ~ 7.95e-6
    g = make_grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    oracle = 1.0 - math.exp(-40.0)
    assert abs(quad_norm(y) - oracle) < 1e-5


def test_quad_norm_zero_density():
    g = make_grid(64, 10.0)
    assert quad_norm(Density(g, np.zeros(64))) == 0.0


def test_quad_norm_linearity():
    g = make_grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    assert quad_norm(sampled(g, lambda x: 2 * np.exp(-x))) == pytest.approx(
        2 * quad_norm(y), rel=1e-14
    )


@pytest.mark.parametrize("alpha, mean", [(1.0, 1.0), (2.0, 0.5)])
def test_quad_mean_exponential(alpha, mean):
    # oracle: integral x * alpha e^(-alpha x) dx = 1/alpha (trapezoid bias ~8e-6 * mean)
    g = make_grid(4097, 40.0 / alpha)
    y = sampled(g, lambda x: alpha * np.exp(-alpha * x))
    assert abs(quad_mean(y) - mean) < 1e-5 * (1.0 + mean)


def test_quad_mean_gamma_family_closed_form():
    # mean of alpha^2 x e^(-alpha x) is (n+1)/alpha = 1 for alpha=2, n=1
    g = make_grid(4097, 40.0)
    y = sampled(g, lambda x: 4.0 * x * np.exp(-2.0 * x))
    assert abs(quad_mean(y) - 1.0) < 1e-5


def test_quad_mean_degenerate_raises():
    g = make_grid(64, 10.0)
    with pytest.raises(DegenerateDensityError):
        quad_mean(Density(g, np.zeros(64)))


def test_scale_property_machine_exact():
    g = make_grid(513, 30.0)
    rng = np.random.default_rng(5)
    y = Density(g, rng.random(513))
    for c in (0.0, 0.25, 1.0, 7.5):
        assert quad_norm(y.scaled(c)) == pytest.approx(c * quad_norm(y), rel=1e-12, abs=1e-300)


def test_l1_identity_and_symmetry():
    g = make_grid(257, 20.0)
    rng = np.random.default_rng(11)
    y = Density(g, rng.random(257))
    w = Density(g, rng.random(257))
    assert l1_distance(y, y) == 0.0
    assert l1_distance(y, w) == l1_distance(w, y)


def test_l1_exponential_scaling():
    # oracle: integral |e^(-x) - 2 e^(-x)| dx = 1
    g = make_grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    w = sampled(g, lambda x: 2 * np.exp(-x))
    assert abs(l1_distance(y, w) - 1.0) < 1e-5


def test_l1_triangle_inequality_random():
    g = make_grid(257, 20.0)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = Density(g, rng.random(257))
        b = Density(g, rng.random(257))
        c = Density(g, rng.random(257))
        lhs = l1_distance(a, c)
        rhs = l1_distance(a, b) + l1_distance(b, c)
        assert lhs <= rhs * (1 + 1e-12)


def test_l1_grid_mismatch():
    y = Density(make_grid(64, 10.0), np.ones(64))
    w = Density(make_grid(65, 10.0), np.ones(65))
    with pytest.raises(GridMismatchError):
        l1_distance(y, w)


def test_quadrature_convergence_order_is_two():
    # halving the spacing must shrink the exponential's norm and mean errors
    # by ~4x: measured order within [1.8, 2.2]
    errs_norm = []
    errs_mean = []
    for n in (1025, 2049, 4097):
        g = make_grid(n, 40.0)
        y = sampled(g, lambda x: np.exp(-x))
        errs_norm.append(abs(quad_norm(y) - (1.0 - math.exp(-40.0))))
        errs_mean.append(abs(quad_mean(y) - 1.0))
    for errs in (errs_norm, errs_mean):
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2


def test_tail_mass_estimate_exponential():
    g = make_grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    exact = math.exp(-40.0)
    est = tail_mass_estimate(y)
    assert exact / 2 <= est <= exact * 2


def test_tail_mass_estimate_compact_support_and_zero():
    g = make_grid(4097, 40.0)
    tri = sampled(g, lambda x: np.maximum(0.0, 1.0 - np.abs(x - 1.0)))
    assert tail_mass_estimate(tri) == 0.0
    assert tail_mass_estimate(Density(g, np.zeros(4097))) == 0.0


def test_density_csv_round_trip_bit_exact(tmp_path):
    g = make_grid(257, 17.0)
    rng = np.random.default_rng(23)
    y = Density(g, rng.random(257))
    path = tmp_path / "density.csv"
    write_density_csv(path, y)
    back = read_density_csv(path)
    assert back.grid == y.grid
    assert np.array_equal(back.values, y.values)
    # second write must be byte-identical
    path2 = tmp_path / "density2.csv"
    write_density_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_density_csv_node_column_follows_the_grid(tmp_path):
    # Alternate grids that share n_points, differ in it, or sit at a tiny
    # scale, so a node column left over from the previous grid shows.
    rng = np.random.default_rng(5)
    grids = [make_grid(257, 17.0), make_grid(257, 40.0), make_grid(129, 17.0),
             make_grid(257, 1e-160)]
    for k, g in enumerate(grids + grids[::-1]):
        y = Density(g, rng.random(g.n_points) / g.x_max)
        path = tmp_path / f"d{k}.csv"
        write_density_csv(path, y)
        back = read_density_csv(path)
        assert back.grid == g
        assert np.array_equal(back.grid.nodes, g.nodes)
        assert np.array_equal(back.values, y.values)


def test_density_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError):
        read_density_csv(path)


@pytest.mark.parametrize(
    "text",
    ["", "x,density\n", "x,density\n0.0,1.0\n1.0\n", "x,density\n0.0,1.0\n1.0,abc\n"],
    ids=["empty", "header_only", "short_row", "non_numeric"],
)
def test_density_csv_rejects_malformed_input(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_density_csv(path)


def test_density_csv_rejects_nonuniform_nodes(tmp_path):
    path = tmp_path / "warped.csv"
    rows = ["x,density"] + [f"{x},1.0" for x in (0.0,) + tuple(np.sqrt(np.arange(1, 16)))]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        read_density_csv(path)
