"""Grid, density, and quadrature tests against analytic oracles."""

import math
import re
import warnings

import numpy as np
import pytest

from wealthgas import (
    DegenerateDensityError,
    Density,
    Grid,
    GridMismatchError,
    l1_distance,
    quad_mean,
    quad_norm,
    read_density_csv,
    write_density_csv,
)
from wealthgas.grid import normalized


def sampled(grid, fn):
    return Density(grid, fn(grid.nodes))


def test_grid_spacing():
    assert Grid(16, 15.0).spacing == pytest.approx(1.0, abs=0.0)
    assert Grid(4097, 40.0).spacing == pytest.approx(40.0 / 4096, abs=0.0)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid(8, 10.0)
    with pytest.raises(ValueError):
        Grid(64, 0.0)
    with pytest.raises(ValueError):
        Grid(64, -1.0)
    with pytest.raises(ValueError):
        Grid(64, math.inf)
    with pytest.raises(ValueError):
        Grid(64, math.nan)


@pytest.mark.parametrize("n_points, x_max, message", [
    (4097, -40.0, r"x_max must be positive and finite, got -40\.0$"),
    (4097, 0.0, r"x_max must be positive and finite, got 0\.0$"),
    (4097, math.nan, "x_max must be positive and finite, got nan$"),
    (1, 1.0, "n_points must be an integer >= 16, got 1$"),
    (math.nan, 1.0, "n_points must be an integer >= 16, got nan$"),
    (16.5, 1.0, r"n_points must be an integer >= 16, got 16\.5$"),
    (math.inf, 1.0, "n_points must be an integer >= 16, got inf$"),
], ids=["negative_cut", "zero_cut", "nan_cut", "one_node", "nan_nodes", "fractional_nodes", "infinite_nodes"])
def test_grid_checks_its_own_rules(n_points, x_max, message):
    # Unchecked, Grid(4097, -40.0) gives densities of quad_norm -1 and an operator image of
    # zeros, Grid(4097, 0.0) a numpy divide warning, and Grid(1, 1.0) a ZeroDivisionError;
    # Grid(16.5, 1.0) would be silently truncated to 16 nodes and Grid(inf, 1.0) raise
    # OverflowError from int().
    with pytest.raises(ValueError, match=message):
        Grid(n_points, x_max)


def test_grid_stores_an_int_and_a_float():
    g = Grid(np.int64(64), 10)
    assert type(g.n_points) is int and type(g.x_max) is float
    assert g == Grid(64, 10.0) and hash(g) == hash(Grid(64, 10.0))


def test_grid_endpoints_exact():
    g = Grid(4097, 40.0)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 40.0


def test_grid_arrays_are_shared_and_read_only():
    g = Grid(65, 10.0)
    for get in (lambda: g.nodes, lambda: g.trap_weights):
        first = get()
        assert get() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[1] = 0.0
    assert np.array_equal(g.nodes, np.linspace(0.0, 10.0, 65))
    assert np.array_equal(g.trap_weights, np.r_[0.5, np.ones(63), 0.5] * g.spacing)
    # built arrays do not enter equality or hashing
    assert g == Grid(65, 10.0) and hash(g) == hash(Grid(65, 10.0))


def test_normalized_scales_to_the_requested_mass():
    g = Grid(65, 10.0)
    y = sampled(g, lambda x: np.exp(-x))
    assert np.array_equal(normalized(y).values, y.scaled(1.0 / quad_norm(y)).values)
    assert np.array_equal(normalized(y, 0.5).values, y.scaled(0.5 / quad_norm(y)).values)


def test_normalized_rejects_zero_mass_naming_the_grid():
    g = Grid(16, 40.0)
    with pytest.raises(DegenerateDensityError, match=r"Grid\(n_points=16, x_max=40.0\)"):
        normalized(Density(g, np.zeros(16)))


def test_grid_equality_is_by_parameters():
    assert Grid(64, 10.0) == Grid(64, 10.0)
    assert Grid(64, 10.0) != Grid(65, 10.0)
    assert Grid(64, 10.0) != Grid(64, 11.0)


def test_density_rejects_negative_values():
    g = Grid(16, 15.0)
    vals = np.ones(16)
    vals[3] = -1e-9
    with pytest.raises(ValueError):
        Density(g, vals)


@pytest.mark.parametrize("values", [np.ones(15), np.ones((16, 1))])
def test_density_rejects_a_wrong_shape(values):
    with pytest.raises(ValueError, match="values must be a 1-D array matching the grid"):
        Density(Grid(16, 15.0), values)


def test_density_rejects_nan():
    vals = np.ones(16)
    vals[5] = np.nan
    with pytest.raises(ValueError, match="density values must be finite"):
        Density(Grid(16, 15.0), vals)


def test_scaled_rejects_a_negative_factor():
    with pytest.raises(ValueError, match="scale factor must be nonnegative"):
        Density(Grid(16, 15.0), np.ones(16)).scaled(-1)


def test_density_values_are_immutable():
    g = Grid(16, 15.0)
    y = Density(g, np.ones(16))
    with pytest.raises(ValueError):
        y.values[0] = 2.0


def test_density_copies_a_writeable_input():
    v = np.ones(16)
    y = Density(Grid(16, 15.0), v)
    assert v.flags.writeable
    v += 1.0
    assert np.all(y.values == 1.0)


def test_density_copies_a_read_only_input_too():
    v = np.ones(16)
    v.setflags(write=False)
    y = Density(Grid(16, 15.0), v)
    assert y.values is not v
    assert not np.shares_memory(y.values, v)
    assert not v.flags.writeable and not y.values.flags.writeable


def test_quad_norm_exponential_against_analytic_integral():
    # oracle: integral_0^40 e^(-x) dx = 1 - e^(-40); composite trapezoid on a
    # smooth integrand carries an O(h^2) bias, here (h^2/12)|f'(0)| ~ 7.95e-6
    g = Grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    oracle = 1.0 - math.exp(-40.0)
    assert abs(quad_norm(y) - oracle) < 1e-5


def test_quad_norm_zero_density():
    g = Grid(64, 10.0)
    assert quad_norm(Density(g, np.zeros(64))) == 0.0


def test_quad_norm_linearity():
    g = Grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    assert quad_norm(sampled(g, lambda x: 2 * np.exp(-x))) == pytest.approx(
        2 * quad_norm(y), rel=1e-14
    )


@pytest.mark.parametrize("alpha, mean", [(1.0, 1.0), (2.0, 0.5)])
def test_quad_mean_exponential(alpha, mean):
    # oracle: integral x * alpha e^(-alpha x) dx = 1/alpha (trapezoid bias ~8e-6 * mean)
    g = Grid(4097, 40.0 / alpha)
    y = sampled(g, lambda x: alpha * np.exp(-alpha * x))
    assert abs(quad_mean(y) - mean) < 1e-5 * (1.0 + mean)


def test_quad_mean_gamma_family_closed_form():
    # mean of alpha^2 x e^(-alpha x) is (n+1)/alpha = 1 for alpha=2, n=1
    g = Grid(4097, 40.0)
    y = sampled(g, lambda x: 4.0 * x * np.exp(-2.0 * x))
    assert abs(quad_mean(y) - 1.0) < 1e-5


def test_quad_mean_of_a_zero_density_is_zero():
    # a pure quadrature, like quad_norm: the callers that need a positive mean own that rule
    g = Grid(64, 10.0)
    assert quad_mean(Density(g, np.zeros(64))) == 0.0


def test_scale_property_machine_exact():
    g = Grid(513, 30.0)
    rng = np.random.default_rng(5)
    y = Density(g, rng.random(513))
    for c in (0.0, 0.25, 1.0, 7.5):
        assert quad_norm(y.scaled(c)) == pytest.approx(c * quad_norm(y), rel=1e-12, abs=1e-300)


def test_l1_identity_and_symmetry():
    g = Grid(257, 20.0)
    rng = np.random.default_rng(11)
    y = Density(g, rng.random(257))
    w = Density(g, rng.random(257))
    assert l1_distance(y, y) == 0.0
    assert l1_distance(y, w) == l1_distance(w, y)


def test_l1_exponential_scaling():
    # oracle: integral |e^(-x) - 2 e^(-x)| dx = 1
    g = Grid(4097, 40.0)
    y = sampled(g, lambda x: np.exp(-x))
    w = sampled(g, lambda x: 2 * np.exp(-x))
    assert abs(l1_distance(y, w) - 1.0) < 1e-5


def test_l1_triangle_inequality_random():
    g = Grid(257, 20.0)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = Density(g, rng.random(257))
        b = Density(g, rng.random(257))
        c = Density(g, rng.random(257))
        lhs = l1_distance(a, c)
        rhs = l1_distance(a, b) + l1_distance(b, c)
        assert lhs <= rhs * (1 + 1e-12)


def test_l1_grid_mismatch():
    y = Density(Grid(64, 10.0), np.ones(64))
    w = Density(Grid(65, 10.0), np.ones(65))
    with pytest.raises(GridMismatchError):
        l1_distance(y, w)


def test_quadrature_convergence_order_is_two():
    # halving the spacing must shrink the exponential's norm and mean errors
    # by ~4x: measured order within [1.8, 2.2]
    errs_norm = []
    errs_mean = []
    for n in (1025, 2049, 4097):
        g = Grid(n, 40.0)
        y = sampled(g, lambda x: np.exp(-x))
        errs_norm.append(abs(quad_norm(y) - (1.0 - math.exp(-40.0))))
        errs_mean.append(abs(quad_mean(y) - 1.0))
    for errs in (errs_norm, errs_mean):
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2


def test_density_csv_round_trip_bit_exact(tmp_path):
    g = Grid(257, 17.0)
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
    grids = [Grid(257, 17.0), Grid(257, 40.0), Grid(129, 17.0),
             Grid(257, 1e-160)]
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
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected header 'x,density', got 'a,b'$"):
        read_density_csv(path)


# A valid file on Grid(16, 15.0), then each malformed case as one edit
# of it, so every rejection below comes from the reader and not from a
# grid too short to build.
_GOOD_ROWS = [f"{x},1.0" for x in range(16)]


def _density_text(rows) -> str:
    return "\n".join(["x,density", *rows]) + "\n"


def _with_row(k, row) -> str:
    return _density_text(_GOOD_ROWS[:k] + [row] + _GOOD_ROWS[k + 1:])


_TWO_NUMBERS = "every data row must hold two numbers; "


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected header 'x,density', got ''"),
        ("x,density\n", "no data rows after the header"),
        (_with_row(5, "5"), _TWO_NUMBERS + "data row 6 holds 1 cell"),
        (_with_row(5, "5,abc"), _TWO_NUMBERS + "data row 6 has 'abc', which is not a number"),
        (_density_text(_GOOD_ROWS[:6] + [""] + _GOOD_ROWS[6:]), "blank line at data row 7"),
        (_with_row(5, "5,1.0,2.0"), _TWO_NUMBERS + "data row 6 holds 3 cells"),
        (_density_text([row + ",0" for row in _GOOD_ROWS]), _TWO_NUMBERS + "data row 1 holds 3 cells"),
        (_density_text([row + ",0" for row in _GOOD_ROWS[:2]] + _GOOD_ROWS[2:]),
         _TWO_NUMBERS + "data row 1 holds 3 cells"),
        (_with_row(5, "5,1.0,"), _TWO_NUMBERS + "data row 6 holds 3 cells"),
        (_with_row(5, '"5",1.0'), _TWO_NUMBERS + """data row 6 has '"5"', which is not a number"""),
    ],
    ids=["empty", "header_only", "short_row", "non_numeric", "blank_line", "three_columns",
         "every_row_three_columns", "first_rows_three_columns", "trailing_comma", "quoted_cell"],
)
def test_density_csv_rejects_malformed_input(tmp_path, text, message):
    # each message names the first bad data row, 1-based, in the reader's own words: numpy's
    # advice ("use `usecols`") and its 0-based row numbers never reach it
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's reader warns on input with no rows
        with pytest.raises(ValueError) as info:
            read_density_csv(path)
    assert str(info.value) == f"{path}: {message}"
    assert "usecols" not in str(info.value)


@pytest.mark.parametrize("rows, message", [
    (_GOOD_ROWS[:15], "n_points must be an integer >= 16, got 15"),
    ([f"{-x},1.0" for x in range(16)], "x_max must be positive and finite, got -15.0"),
    (_GOOD_ROWS[:15] + ["16,1.0"], "node column is not the uniform grid implied by its length and endpoint"),
    (_GOOD_ROWS[:15] + ["15,nan"], "density values must be finite"),
], ids=["fifteen_rows", "negative_last_node", "nonuniform_nodes", "nan_value"])
def test_density_csv_names_the_file_on_a_broken_grid_or_density_rule(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(_density_text(rows))
    with pytest.raises(ValueError) as info:
        read_density_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_density_csv_good_rows_read(tmp_path):
    # the unedited text behind the malformed cases is itself valid
    path = tmp_path / "good.csv"
    path.write_text(_density_text(_GOOD_ROWS))
    assert read_density_csv(path).grid == Grid(16, 15.0)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_density_csv_reads_either_line_end_and_short_cells(tmp_path, newline):
    # node cells like 0.5 and values at their shortest repr, fewer than 17 digits
    g = Grid(16, 7.5)
    vals = np.random.default_rng(2).random(16)
    lines = ["x,density"] + [f"{x!r},{v!r}" for x, v in zip(g.nodes.tolist(), vals.tolist())]
    path = tmp_path / "short.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    back = read_density_csv(path)
    assert back.grid == g
    assert np.array_equal(back.grid.nodes, g.nodes)
    assert np.array_equal(back.values, vals)


def test_density_csv_rejects_nonuniform_nodes(tmp_path):
    path = tmp_path / "warped.csv"
    rows = ["x,density"] + [f"{x},1.0" for x in (0.0,) + tuple(np.sqrt(np.arange(1, 16)))]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        read_density_csv(path)
