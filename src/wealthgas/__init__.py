"""Numerical engine for a conservative random-exchange wealth model.

Core pieces:

* uniform grids and sampled densities with trapezoid quadrature (``grid``),
* the one-step redistribution operator, its iteration driver, and
  Fourier-side diagnostics (``evolution``),
* analytic density families, gamma mixtures whose closed-form first step
  acts on their coefficients (``families``),
* a self-contained exponential integral E1 (``specialfn``),
* an agent-based Monte Carlo of pairwise random exchanges (``agents``),
* the executable property suite behind ``wealthgas verify`` (``verify``).
"""

from .grid import (
    Grid,
    Density,
    GridMismatchError,
    DegenerateDensityError,
    make_grid,
    default_grid,
    quad_norm,
    quad_mean,
    l1_distance,
    read_density_csv,
    write_density_csv,
)
from .evolution import (
    IterationReport,
    MassDefectError,
    TruncationHealthError,
    autoconvolve,
    apply_operator,
    iterate_operator,
    matched_exponential,
    characteristic_function,
    fixed_point_ode_residual,
    write_reports_csv,
)
from .families import (
    FamilyKind,
    FamilySpec,
    ContractionResult,
    evaluate_family,
    sample_family,
    family_mean,
    closed_form_step,
    contraction_check,
    triangle_density,
    PARAMETER_LATTICE,
)
from .agents import (
    AgentEnsemble,
    HistogramEstimate,
    ExponentialFit,
    init_ensemble,
    run_transactions,
    histogram,
    fit_exponential,
    write_ensemble_csv,
    write_histogram_csv,
    write_fit_json,
)
from .verify import PropertyCheck, VerifySettings, run_property_suite, report_as_dict

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "Density",
    "GridMismatchError",
    "DegenerateDensityError",
    "make_grid",
    "default_grid",
    "quad_norm",
    "quad_mean",
    "l1_distance",
    "read_density_csv",
    "write_density_csv",
    "IterationReport",
    "MassDefectError",
    "TruncationHealthError",
    "autoconvolve",
    "apply_operator",
    "iterate_operator",
    "matched_exponential",
    "characteristic_function",
    "fixed_point_ode_residual",
    "write_reports_csv",
    "FamilyKind",
    "FamilySpec",
    "ContractionResult",
    "evaluate_family",
    "sample_family",
    "family_mean",
    "closed_form_step",
    "contraction_check",
    "triangle_density",
    "PARAMETER_LATTICE",
    "AgentEnsemble",
    "HistogramEstimate",
    "ExponentialFit",
    "init_ensemble",
    "run_transactions",
    "histogram",
    "fit_exponential",
    "write_ensemble_csv",
    "write_histogram_csv",
    "write_fit_json",
    "PropertyCheck",
    "VerifySettings",
    "run_property_suite",
    "report_as_dict",
    "__version__",
]
