"""Non-vacuity of the verify suite: every check fails on some broken program.

Each case swaps one function that ``verify`` calls for a broken version and
pins exactly the set of checks that must then FAIL at the default
settings.  A check that stops failing on its mutation has lost its teeth; a
check that starts failing shows a threshold moved.  Every check of the
suite is in at least one pinned set, so a new check needs a mutation here.
"""

import numpy as np
import pytest

from wealthgas import verify
from wealthgas.evolution import (
    apply_operator,
    autoconvolve,
    characteristic_function,
    fixed_point_ode_residual,
)
from wealthgas.grid import Density

# (function in verify, broken replacement, checks that must fail)
MUTATIONS = {
    "(y+Ty)/2": (
        "apply_operator",
        lambda y: Density(y.grid, 0.5 * (y.values + apply_operator(y).values)),
        {"norm_squaring", "monotone_decrease", "complete_monotonicity",
         "derivative_zero_recurrence", "norm_trichotomy"},
    ),
    "1.001*Ty": (
        "apply_operator",
        lambda y: apply_operator(y).scaled(1.001),
        {"norm_squaring", "mean_conservation", "fixed_point", "derivative_zero_recurrence",
         "norm_trichotomy"},
    ),
    # a gain of one part in 1e9: the mass laws see it; fixed_point reads
    # 9.9999994e-10, just inside its 1e-9 bound
    "(1+1e-9)*Ty": (
        "apply_operator",
        lambda y: apply_operator(y).scaled(1.0 + 1e-9),
        {"norm_squaring", "mean_conservation"},
    ),
    "T(Ty)": (
        "apply_operator",
        lambda y: apply_operator(apply_operator(y)),
        {"norm_squaring", "derivative_zero_recurrence", "norm_trichotomy"},
    ),
    # images spread by more than the Lipschitz constant 2 allows
    "2.5*Ty": (
        "apply_operator",
        lambda y: apply_operator(y).scaled(2.5),
        {"norm_squaring", "mean_conservation", "lipschitz_bound", "fixed_point",
         "derivative_zero_recurrence", "norm_trichotomy"},
    ),
    # a strict contraction: no pair of fixed points keeps its distance
    "0.99*Ty": (
        "apply_operator",
        lambda y: apply_operator(y).scaled(0.99),
        {"norm_squaring", "mean_conservation", "lipschitz_nonvacuity", "fixed_point",
         "derivative_zero_recurrence", "norm_trichotomy"},
    ),
    # the reflection y(x_max - x) is an involution: every input is on a 2-cycle
    "mirror": (
        "apply_operator",
        lambda y: Density(y.grid, y.values[::-1]),
        {"norm_squaring", "mean_conservation", "fixed_point", "no_two_cycles",
         "monotone_decrease", "complete_monotonicity", "derivative_zero_recurrence",
         "norm_trichotomy"},
    ),
    # the last sample dropped: exactly the entry the rough input exposes
    "autoconvolve without a_{N-1}": (
        "autoconvolve",
        lambda y: autoconvolve(Density(y.grid, np.r_[y.values[:-1], 0.0])),
        {"method_equivalence"},
    ),
    # |ybar - ybar^2| is not small at the fixed point, but the triangle keeps it large
    "residual without its p*phi' term": (
        "fixed_point_ode_residual",
        lambda y, p: np.abs(characteristic_function(y, p) - characteristic_function(y, p) ** 2),
        {"ode_residual_fixed_point"},
    ),
    # at p/1000 every unit-mass density nearly solves the fixed-point ODE
    "residual at p/1000": (
        "fixed_point_ode_residual",
        lambda y, p: fixed_point_ode_residual(y, np.asarray(p) / 1000.0),
        {"ode_residual_rejects_nonfixed"},
    ),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_broken_program_fails_exactly_the_pinned_checks(name, monkeypatch):
    target, broken, expected = MUTATIONS[name]
    monkeypatch.setattr(verify, target, broken)
    failed = {c.name for c in verify.run_property_suite() if not c.passed}
    assert failed == expected


def test_every_check_has_a_mutation():
    names = {c.name for c in verify.run_property_suite()}
    assert set().union(*(expected for _, _, expected in MUTATIONS.values())) == names
