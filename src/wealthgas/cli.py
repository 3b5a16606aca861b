"""Command-line front-end: iterate, simulate, verify, families.

Every subcommand resolves its options, runs, and writes its outputs plus a
``manifest.json`` recording the resolved options and package version, so a
run can be reproduced bit-for-bit from the manifest alone.  All outputs are
plain CSV/JSON plot data; no timestamps or environment state leak into the
files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .agents import (
    check_histogram_args,
    fit_exponential,
    histogram,
    init_ensemble,
    run_transactions,
    write_ensemble_csv,
    write_fit_json,
    write_histogram_csv,
)
from .evolution import ConvolutionMethod, iterate_operator, write_reports_csv
from .families import (
    PARAMETER_LATTICE,
    FamilyKind,
    FamilySpec,
    contraction_check,
    family_mean,
    sample_family,
    triangle_density,
)
from .grid import (
    DEFAULT_N_POINTS,
    DOMAIN_MEAN_MULTIPLE,
    default_grid,
    make_grid,
    read_density_csv,
    write_csv,
    write_density_csv,
    write_json,
)
from .verify import VerifySettings, report_as_dict, run_property_suite

FAMILIES_DEFAULT_N_POINTS = 32769


def _write_manifest(out_dir: Path, subcommand: str, options: dict) -> None:
    write_json(out_dir / "manifest.json",
               {"subcommand": subcommand, "options": options, "version": __version__})


def _family_spec_from_args(args) -> FamilySpec:
    kind = FamilyKind(args.family)
    if kind is FamilyKind.EXPONENTIAL:
        return FamilySpec(kind, alpha=args.alpha)
    if kind is FamilyKind.GAMMA:
        return FamilySpec(kind, alpha=args.alpha, n=args.n)
    if kind is FamilyKind.TWO_EXP_MIX:
        return FamilySpec(kind, alpha=args.alpha, beta=args.beta)
    return FamilySpec(kind, alpha=args.alpha, n=args.n, eps=args.eps)


def _resolve_initial(args):
    """Initial density plus the resolved option record for the manifest."""
    if args.initial is not None:
        y0 = read_density_csv(args.initial)
        return y0, {
            "initial": str(args.initial),
            "n_points": y0.grid.n_points,
            "x_max": y0.grid.x_max,
        }
    if args.family == "triangle":
        spec, mean = None, args.mean
        record = {"family": "triangle", "mean": mean}
    else:
        spec = _family_spec_from_args(args)
        mean = family_mean(spec)
        record = {"family": spec.kind.value, "alpha": spec.alpha, "beta": spec.beta,
                  "n": spec.n, "eps": spec.eps}
    x_max = args.x_max if args.x_max is not None else DOMAIN_MEAN_MULTIPLE * mean
    grid = make_grid(args.n_points, x_max)
    record.update({"n_points": grid.n_points, "x_max": grid.x_max})
    y0 = triangle_density(grid, mean) if spec is None else sample_family(spec, grid)
    return y0, record


def cmd_iterate(args) -> int:
    out_dir = Path(args.out)
    y0, record = _resolve_initial(args)
    densities, reports = iterate_operator(
        y0, args.steps, method=args.method, early_stop_delta=args.stop_delta
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, d in enumerate(densities):
        write_density_csv(out_dir / f"density_step_{k:03d}.csv", d)
    write_reports_csv(out_dir / "report.csv", reports)
    record.update({"steps": args.steps, "method": ConvolutionMethod(args.method).value,
                   "stop_delta": args.stop_delta})
    _write_manifest(out_dir, "iterate", record)
    return 0


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    check_histogram_args(args.bins, args.m_max)
    ens = init_ensemble(args.agents, equal=args.m0, seed=args.seed)
    ens = run_transactions(ens, args.transactions)
    m_max = args.m_max if args.m_max is not None else 10.0 * ens.mean_money
    hist = histogram(ens, args.bins, m_max)
    fit = fit_exponential(ens)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ensemble_csv(out_dir / "ensemble.csv", ens)
    write_histogram_csv(out_dir / "histogram.csv", hist)
    write_fit_json(out_dir / "fit.json", ens, fit)
    _write_manifest(
        out_dir,
        "simulate",
        {
            "agents": args.agents,
            "transactions": args.transactions,
            "seed": args.seed,
            "m0": args.m0,
            "bins": args.bins,
            "m_max": m_max,
        },
    )
    return 0


def cmd_verify(args) -> int:
    out_dir = Path(args.out)
    settings = VerifySettings(
        n_points=args.n_points,
        x_max=args.x_max,
        seed=args.seed,
        method=ConvolutionMethod(args.method),
    )
    checks = run_property_suite(settings)
    report = report_as_dict(checks, settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "verify_report.json", report)
    _write_manifest(
        out_dir,
        "verify",
        {
            "n_points": settings.n_points,
            "x_max": settings.x_max,
            "seed": settings.seed,
            "method": settings.method.value,
        },
    )
    width = max(len(c.name) for c in checks)
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        print(f"[{mark}] {c.name:<{width}}  measured={c.measured:.6e}  {c.comparison} {c.threshold:.6e}")
    failed = [c.name for c in checks if not c.passed]
    if failed:
        print(f"failed properties: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


FAMILIES_CSV_HEADER = (
    "family", "alpha", "beta", "n", "eps", "d_before", "d_after", "contracted", "oracle_l1_gap",
)


def _spec_label(spec: FamilySpec) -> tuple:
    """Label cells as strings, so alpha = 1.0 is written ``1.0`` and an unset field empty."""
    return tuple("" if v is None else str(v)
                 for v in (spec.kind.value, spec.alpha, spec.beta, spec.n, spec.eps))


def cmd_families(args) -> int:
    out_dir = Path(args.out)
    if args.family is not None:
        specs = [_family_spec_from_args(args)]
    else:
        specs = list(PARAMETER_LATTICE)
    rows = []
    for spec in specs:
        res = contraction_check(spec, default_grid(family_mean(spec), args.n_points), args.method)
        rows.append(_spec_label(spec) + (
            res.d_before, res.d_after, str(res.contracted).lower(), res.oracle_l1_gap))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "families.csv", FAMILIES_CSV_HEADER, rows)
    _write_manifest(
        out_dir,
        "families",
        {
            "n_points": args.n_points,
            "method": ConvolutionMethod(args.method).value,
            "family": args.family,
            "alpha": args.alpha if args.family else None,
            "beta": args.beta if args.family else None,
            "n": args.n if args.family else None,
            "eps": args.eps if args.family else None,
        },
    )
    return 0


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1.0, help="rate parameter alpha > 0")
    p.add_argument("--beta", type=float, default=3.0, help="second rate for the mix family")
    p.add_argument("--n", type=int, default=1, help="gamma/epsmix order n >= 0")
    p.add_argument("--eps", type=float, default=0.5, help="epsmix weight in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wealthgas",
        description="Conservative random-exchange wealth model: operator iteration, "
        "agent simulation, property verification, family reproductions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_it = sub.add_parser("iterate", help="iterate the redistribution operator from an initial density")
    group = p_it.add_mutually_exclusive_group()
    group.add_argument(
        "--family",
        choices=["triangle", "exponential", "gamma", "mix", "epsmix"],
        default="triangle",
        help="named initial condition",
    )
    group.add_argument("--initial", type=Path, default=None, help="initial density CSV (x,density)")
    _add_family_options(p_it)
    p_it.add_argument("--mean", type=float, default=1.0, help="triangle mean")
    p_it.add_argument("--steps", type=int, default=10)
    p_it.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    p_it.add_argument("--x-max", type=float, default=None, help="domain cut (default 40 * mean)")
    p_it.add_argument("--method", choices=[m.value for m in ConvolutionMethod], default="fft")
    p_it.add_argument("--stop-delta", type=float, default=None, help="early stop when step_delta drops below")
    p_it.add_argument("--out", type=Path, default=Path("."))
    p_it.set_defaults(func=cmd_iterate)

    p_sim = sub.add_parser("simulate", help="run the agent-based Monte Carlo")
    p_sim.add_argument("--agents", type=int, required=True)
    p_sim.add_argument("--transactions", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--m0", type=float, default=1.0, help="equal initial money per agent")
    p_sim.add_argument("--bins", type=int, default=200)
    p_sim.add_argument("--m-max", type=float, default=None, help="histogram cut (default 10 * mean)")
    p_sim.add_argument("--out", type=Path, default=Path("."))
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the operator property suite")
    p_ver.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    p_ver.add_argument("--x-max", type=float, default=VerifySettings.x_max)
    p_ver.add_argument("--seed", type=int, default=VerifySettings.seed)
    p_ver.add_argument("--method", choices=[m.value for m in ConvolutionMethod], default="fft")
    p_ver.add_argument("--out", type=Path, default=Path("."))
    p_ver.set_defaults(func=cmd_verify)

    p_fam = sub.add_parser("families", help="reproduce the closed-form family checks")
    p_fam.add_argument(
        "--family",
        choices=["exponential", "gamma", "mix", "epsmix"],
        default=None,
        help="restrict to a single family member instead of the full lattice",
    )
    _add_family_options(p_fam)
    p_fam.add_argument("--n-points", type=int, default=FAMILIES_DEFAULT_N_POINTS)
    p_fam.add_argument("--method", choices=[m.value for m in ConvolutionMethod], default="fft")
    p_fam.add_argument("--out", type=Path, default=Path("."))
    p_fam.set_defaults(func=cmd_families)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
