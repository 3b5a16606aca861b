"""Acceptance criteria, one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-5, 8, 9 and the method-equivalence part of 12 are
properties that ``verify`` owns: each runs its ``verify.check_*`` group on
GRID with a seeded generator of its own and prints verify's ``[pass]``
lines; ``tests/test_verify.py`` shows that every one of those checks fails
on some broken program.

Criterion 6's convergence budgets come from two facts about the exact
operator.  Its characteristic function obeys
phi_{Ty}(p) = (1/p) int_0^p phi_y(q)^2 dq, and since ||f - g||_1 >=
|phi_f(p) - phi_g(p)| for every p, this recursion bounds the L1 distance to
the exponential from below.  Linearized about the exponential, the n-th
moment mode contracts by 2/(n+1) per step, so once mass and mean are fixed
the slowest surviving mode, the second moment, sets a per-step budget of 2/3.
"""

import json

import numpy as np
import pytest

from wealthgas import (
    Grid,
    apply_operator,
    characteristic_function,
    contraction_check,
    family_mean,
    fit_exponential,
    histogram,
    init_ensemble,
    iterate_operator,
    l1_distance,
    matched_exponential,
    quad_mean,
    run_transactions,
    triangle_density,
)
from wealthgas import verify
from wealthgas.cli import main as cli_main
from wealthgas.families import PARAMETER_LATTICE
from wealthgas.verify import format_checks

GRID = Grid(4097, 40.0)
LATTICE_N_POINTS = 32769  # resolution for the closed-form oracle sweep


def _verdict(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def _assert_checks_pass(criterion: str, group, seed: int) -> None:
    """Run one verify property group on GRID with its own generator; every check must pass."""
    checks = group(GRID, np.random.default_rng(seed))
    print(f"{criterion}:\n{format_checks(checks)}")
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_criterion_01_exponential_fixed_points():
    _assert_checks_pass("criterion 1 (fixed point)", verify.check_fixed_points, seed=101)


def test_criterion_02_03_norm_squaring_and_mean_conservation():
    _assert_checks_pass("criteria 2-3 (norm squaring, mean conservation)", verify.check_mass_laws, seed=202)


def test_criterion_04_lipschitz_bound():
    _assert_checks_pass("criterion 4 (Lipschitz bound)", verify.check_lipschitz, seed=404)


def test_criterion_05_norm_trichotomy():
    _assert_checks_pass("criterion 5 (norm trichotomy)", verify.check_trichotomy, seed=505)


def _exact_triangle_trajectory(p: np.ndarray, n_steps: int) -> list[np.ndarray]:
    """phi_k of T^k(triangle) on p from the exact Fourier recursion.

    phi_0 = ((e^{ip} - 1)/(ip))^2 is the mean-1 triangle (two uniforms on
    [0, 1] added), and phi_{k+1}(p) = (1/p) int_0^p phi_k(q)^2 dq by a
    cumulative trapezoid on p, with phi_{k+1}(0) = phi_k(0)^2.  Independent
    of apply_operator.
    """
    ip = 1j * p
    uniform = np.ones_like(ip)
    uniform[1:] = np.expm1(ip[1:]) / ip[1:]
    phis = [uniform**2]
    for _ in range(n_steps):
        sq = phis[-1] ** 2
        integral = np.concatenate([[0.0], np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(p))])
        nxt = np.empty_like(sq)
        nxt[0] = sq[0]
        nxt[1:] = integral[1:] / p[1:]
        phis.append(nxt)
    return phis


def test_criterion_06_convergence_budgets():
    # Budgets from the exact operator, not from the program's output:
    #   1. LB_k = max_p |phi_k(p) - 1/(1 - ip)| is a lower bound on the L1
    #      distance of T^k(triangle) to the mean-1 exponential.  LB_3 > 0.05
    #      and LB_8 > 1e-3, so "< 0.05 within 3 steps, < 1e-3 within 8"
    #      cannot be met by any correct T; the iterates must respect LB_k.
    #   2. The iterates follow the exact trajectory in Fourier space, to the
    #      O(h^2) trapezoid error of the grid (2e-4 is about 2 h^2).
    #   3. Each step contracts the distance by at most 2/3, the eigenvalue
    #      2/(n+1) of the slowest mode left (n = 2) once mass and mean are
    #      fixed; the faster modes make the early ratios smaller.
    n_steps = 8
    y0 = triangle_density(GRID, 1.0)
    densities, reports = iterate_operator(y0, n_steps)
    dist0 = l1_distance(y0, matched_exponential(GRID, quad_mean(y0)))
    dists = [dist0] + [r.dist_to_target for r in reports]
    ratios = [b / a for a, b in zip(dists, dists[1:])]

    p = np.linspace(0.0, 8.0, 8001)
    phis = _exact_triangle_trajectory(p, n_steps)
    expo = 1.0 / (1.0 - 1j * p)
    lower = [float(np.max(np.abs(phi - expo))) for phi in phis]
    phi_gap = [
        float(np.max(np.abs(characteristic_function(densities[k], p[::20]) - phis[k][::20])))
        for k in range(n_steps + 1)
    ]

    ok_old_unmeetable = lower[3] > 0.05 and lower[8] > 1e-3
    ok_lower = all(dists[k] >= lower[k] - 1e-6 for k in range(1, n_steps + 1))
    ok_exact = max(phi_gap) <= 2e-4
    ok_rate = all(r <= 2.0 / 3.0 for r in ratios)
    ok = ok_old_unmeetable and ok_lower and ok_exact and ok_rate
    detail = (
        f"trajectory {['%.4e' % d for d in dists]}, "
        f"ratios {['%.4f' % r for r in ratios]} (<= 2/3: {ok_rate}), "
        f"LB_k {['%.4e' % b for b in lower]} (dist_k >= LB_k - 1e-6: {ok_lower}; "
        f"LB_3 > 0.05 and LB_8 > 1e-3: {ok_old_unmeetable}), "
        f"max |phi - exact| {max(phi_gap):.3e} (<= 2e-4: {ok_exact})"
    )
    _verdict("criterion 6 (convergence budgets)", ok, detail)
    assert ok, f"convergence budget broken: {detail}"


def test_criterion_07_family_oracles_and_contraction():
    # n = 0 members are the exponential itself (a fixed point): both distances
    # vanish there and strict contraction degenerates to "stays fixed"; their
    # oracle gap is taken against the sample, which is their own image
    # (tests/test_families.py::test_order_zero_members_are_their_own_image)
    worst_gap = 0.0
    all_contracted = True
    for spec in PARAMETER_LATTICE:
        res = contraction_check(spec, Grid(LATTICE_N_POINTS, 40.0 * family_mean(spec)))
        worst_gap = max(worst_gap, res.oracle_l1_gap)
        point_ok = res.contracted or (res.d_before <= 1e-8 and res.d_after <= 1e-8)
        all_contracted = all_contracted and point_ok
    ok = worst_gap <= 1e-5 and all_contracted
    _verdict(
        "criterion 7 (family oracles)",
        ok,
        f"max oracle L1 gap {worst_gap:.3e} <= 1e-5 over {len(PARAMETER_LATTICE)} lattice points, "
        f"all contracted (or exactly fixed): {all_contracted}",
    )
    assert ok


def test_criterion_08_no_two_cycles():
    _assert_checks_pass("criterion 8 (no 2-cycles)", verify.check_two_cycles, seed=808)


def test_criterion_09_complete_monotonicity():
    _assert_checks_pass("criterion 9 (complete monotonicity)", verify.check_derivatives, seed=909)


@pytest.fixture(scope="module")
def equilibrated_gas():
    ens = init_ensemble(100_000, equal=1.0, seed=90210)
    return run_transactions(ens, 10_000_000)


def test_criterion_10_monte_carlo_equilibrium(equilibrated_gas):
    ens = equilibrated_gas
    conserved = abs(ens.total - 100_000.0) / 100_000.0
    fit = fit_exponential(ens)
    ok = 0.98 <= fit.beta_hat <= 1.02 and fit.ks_statistic <= 0.01 and conserved <= 1e-9
    _verdict(
        "criterion 10 (Monte Carlo equilibrium)",
        ok,
        f"beta_hat {fit.beta_hat:.6f} in [0.98, 1.02], KS {fit.ks_statistic:.5f} <= 0.01, "
        f"conservation drift {conserved:.2e} <= 1e-9",
    )
    assert ok


def test_criterion_11_bridge_gas_vs_operator_fixed_point(equilibrated_gas):
    ens = equilibrated_gas
    m_max = 10.0 * ens.mean_money
    hist = histogram(ens, 200, m_max)
    target = matched_exponential(Grid(4097, 40.0 * ens.mean_money), ens.mean_money)
    # compare per-bin: average the operator fixed point over each bin
    edges = hist.bin_edges
    x = target.grid.nodes
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (target.values[:-1] + target.values[1:]) * target.grid.spacing)])
    bin_mass = np.interp(edges[1:], x, cdf) - np.interp(edges[:-1], x, cdf)
    width = edges[1] - edges[0]
    gap = float(np.sum(np.abs(hist.densities - bin_mass / width)) * width)
    ok = gap <= 0.03
    _verdict("criterion 11 (bridge)", ok, f"L1(gas histogram, operator fixed point) {gap:.4f} <= 0.03")
    assert ok


def test_criterion_12_method_equivalence_and_verify_exit_codes(tmp_path):
    _assert_checks_pass("criterion 12 (method equivalence)", verify.check_method_equivalence, seed=1212)
    rc_default = cli_main(["verify", "--out", str(tmp_path / "default")])
    rc_coarse = cli_main(["verify", "--n-points", "64", "--out", str(tmp_path / "coarse")])
    ok_exit = rc_default == 0 and rc_coarse != 0
    report = json.loads((tmp_path / "default" / "verify_report.json").read_text())
    ok_report = all({"name", "measured", "threshold", "pass"} <= set(p) for p in report["properties"])
    ok = ok_exit and ok_report
    _verdict("criterion 12 (verify exits)", ok, f"default exit {rc_default}, coarse exit {rc_coarse}")
    assert ok
