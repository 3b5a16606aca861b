"""Command-line front-end: iterate, simulate, verify, families.

Every subcommand resolves its options, runs, writes its outputs and returns
its exit code with the resolved options; ``main`` then writes the
``manifest.json`` recording those options and the package version, so a run
can be reproduced bit-for-bit from the manifest alone.  All outputs are
plain CSV/JSON plot data; no timestamps or environment state leak into the
files.  Only this module forks: ``map_on_cores`` shares the density files of
``iterate`` and the contraction checks of ``families`` among the cores.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .agents import (
    fit_exponential,
    histogram,
    histogram_cut,
    init_ensemble,
    run_transactions,
    write_ensemble_csv,
    write_fit_json,
    write_histogram_csv,
)
from .evolution import iterate_operator, write_reports_csv
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
    Grid,
    default_grid,
    read_density_csv,
    write_csv,
    write_density_csv,
    write_json,
)
from .verify import VerifySettings, format_checks, report_as_dict, run_property_suite

FAMILIES_DEFAULT_N_POINTS = 32769
FAMILY_KINDS = [kind.value for kind in FamilyKind]
FAMILY_OPTIONS = ("alpha", "beta", "n", "eps")
START_DEFAULTS = {"alpha": 1.0, "beta": 3.0, "n": 1, "eps": 0.5, "mean": 1.0}


def map_on_cores(fn, items) -> list:
    """``[fn(x) for x in items]``, the items of the sequence shared among the usable cores.

    On Linux while one Python thread runs, k = min(items, usable cores) processes
    work, process c on items c, c+k, ...: each child pickles its results into a
    temporary file, and the parent reaps every child.  A fork costs about 2.5 ms.
    If any share fails, a failed fork or temporary file included, the serial loop
    runs again from item 0, so the error is the serial loop's first and ``fn`` must
    be safe to run twice.  Tracers see the parent's calls.
    """
    forkable = sys.platform == "linux" and threading.active_count() == 1
    k = min(len(items), len(os.sched_getaffinity(0))) if items and forkable else 1
    pids, shares = [], []
    results, failed = [None] * len(items), False
    try:
        for c in range(1, k):
            shares.append(tempfile.TemporaryFile())
            pids.append(os.fork())
            if pids[-1] == 0:
                try:
                    pickle.dump([fn(x) for x in items[c::k]], shares[-1])
                    shares[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
        results[::k] = [fn(x) for x in items[::k]]
    except Exception:
        failed = True
    finally:
        failed |= any([os.waitpid(pid, 0)[1] for pid in pids])
        for c, share in enumerate(shares, 1):
            with share:
                if not failed:
                    share.seek(0)
                    results[c::k] = pickle.load(share)
    return [fn(x) for x in items] if failed else results


def _start_option(args, name):
    """The start option ``name`` as given on the command line, else its default."""
    value = getattr(args, name)
    return START_DEFAULTS[name] if value is None else value


def _reject_unused(args, used, start: str) -> None:
    """Raise ValueError naming every start option given on the command line but not in ``used``."""
    unused = [f"--{name}" for name in START_DEFAULTS
              if name not in used and getattr(args, name, None) is not None]
    if unused:
        raise ValueError(f"{', '.join(unused)} {'does' if len(unused) == 1 else 'do'} not apply {start}")


def _family_spec_from_args(args) -> FamilySpec:
    """The member named by ``--family``; an option given that FamilySpec drops for its kind raises."""
    spec = FamilySpec(args.family, **{name: _start_option(args, name) for name in FAMILY_OPTIONS})
    _reject_unused(args, [name for name in FAMILY_OPTIONS if getattr(spec, name) is not None],
                   f"to --family {args.family}")
    return spec


def _family_record(spec: FamilySpec) -> dict:
    """Manifest fields of a family member: its kind and options, None where the kind uses none."""
    return {"family": spec.kind.value, **{name: getattr(spec, name) for name in FAMILY_OPTIONS}}


def _resolve_initial(args):
    """Initial density plus the resolved option record for the manifest."""
    if args.initial is not None:
        if args.n_points is not None or args.x_max is not None:
            raise ValueError("--n-points and --x-max do not apply with --initial: the grid is the file's")
        _reject_unused(args, (), "with --initial: the start is the file's")
        y0 = read_density_csv(args.initial)
        return y0, {
            "initial": str(args.initial),
            "n_points": y0.grid.n_points,
            "x_max": y0.grid.x_max,
        }
    if args.family == "triangle":
        _reject_unused(args, ("mean",), "to --family triangle")
        spec, mean = None, _start_option(args, "mean")
        record = {"family": "triangle", "mean": mean}
    else:
        spec = _family_spec_from_args(args)
        mean = family_mean(spec)
        record = _family_record(spec)
    n_points = DEFAULT_N_POINTS if args.n_points is None else args.n_points
    grid = default_grid(mean, n_points) if args.x_max is None else Grid(n_points, args.x_max)
    record.update({"n_points": grid.n_points, "x_max": grid.x_max})
    y0 = triangle_density(grid, mean) if spec is None else sample_family(spec, grid)
    return y0, record


def cmd_iterate(args) -> tuple[int, dict]:
    out_dir = Path(args.out)
    y0, record = _resolve_initial(args)
    densities, reports = iterate_operator(y0, args.steps, early_stop_delta=args.stop_delta)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"density_step_{k:03d}.csv" for k in range(len(densities))]
    map_on_cores(lambda job: write_density_csv(*job), list(zip(paths, densities)))
    write_reports_csv(out_dir / "report.csv", reports)
    record.update({"steps": args.steps, "stop_delta": args.stop_delta})
    return 0, record


def cmd_simulate(args) -> tuple[int, dict]:
    out_dir = Path(args.out)
    ens = init_ensemble(args.agents, equal=args.m0, seed=args.seed)
    m_max = histogram_cut(ens, args.bins, args.m_max)
    ens = run_transactions(ens, args.transactions)
    hist = histogram(ens, args.bins, m_max)
    fit = fit_exponential(ens)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ensemble_csv(out_dir / "ensemble.csv", ens)
    write_histogram_csv(out_dir / "histogram.csv", hist)
    write_fit_json(out_dir / "fit.json", ens, fit)
    return 0, {
        "agents": args.agents,
        "transactions": args.transactions,
        "seed": args.seed,
        "m0": args.m0,
        "bins": args.bins,
        "m_max": m_max,
    }


def cmd_verify(args) -> tuple[int, dict]:
    out_dir = Path(args.out)
    settings = VerifySettings(n_points=args.n_points, x_max=args.x_max, seed=args.seed)
    checks = run_property_suite(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "verify_report.json", report_as_dict(checks, settings))
    print(format_checks(checks))
    failed = [c.name for c in checks if not c.passed]
    if failed:
        print(f"failed properties: {', '.join(failed)}", file=sys.stderr)
    return (1 if failed else 0), asdict(settings)


FAMILIES_CSV_HEADER = (
    "family", "alpha", "beta", "n", "eps", "d_before", "d_after", "contracted", "oracle_l1_gap",
)


def _label_column(values) -> list:
    """Label cells as strings, so alpha = 1.0 is written ``1.0`` and an unset field empty."""
    return ["" if v is None else str(v) for v in values]


def cmd_families(args) -> tuple[int, dict]:
    out_dir = Path(args.out)
    if args.family is not None:
        specs = [_family_spec_from_args(args)]
    else:
        _reject_unused(args, (), "to the lattice run; name one member with --family")
        specs = list(PARAMETER_LATTICE)
    results = map_on_cores(lambda spec: contraction_check(spec, default_grid(family_mean(spec), args.n_points)),
                           specs)
    columns = [_label_column(spec.kind.value for spec in specs)]
    columns += [_label_column(getattr(spec, name) for spec in specs) for name in FAMILY_OPTIONS]
    columns += [[r.d_before for r in results], [r.d_after for r in results],
                [str(r.contracted).lower() for r in results], [r.oracle_l1_gap for r in results]]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "families.csv", FAMILIES_CSV_HEADER, columns)
    record = _family_record(specs[0]) if args.family else dict.fromkeys(["family", *FAMILY_OPTIONS])
    return 0, {"n_points": args.n_points, **record}


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="rate parameter alpha > 0")
    p.add_argument("--beta", type=float, help="second rate for the mix family")
    p.add_argument("--n", type=int, help="gamma/epsmix order n >= 0")
    p.add_argument("--eps", type=float, help="epsmix weight in [0, 1]")


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
        choices=["triangle", *FAMILY_KINDS],
        default="triangle",
        help="named initial condition",
    )
    group.add_argument("--initial", type=Path, default=None, help="initial density CSV (x,density)")
    _add_family_options(p_it)
    p_it.add_argument("--mean", type=float, help="triangle mean")
    p_it.add_argument("--steps", type=int, default=10)
    p_it.add_argument("--n-points", type=int, default=None, help=f"grid nodes (default {DEFAULT_N_POINTS})")
    p_it.add_argument("--x-max", type=float, default=None, help="domain cut (default 40 * mean)")
    p_it.add_argument("--stop-delta", type=float, default=None, help="early stop when step_delta drops below")
    p_it.add_argument("--out", type=Path, default=Path("."))
    p_it.set_defaults(func=cmd_iterate)

    p_sim = sub.add_parser("simulate", help="run the agent-based Monte Carlo")
    p_sim.add_argument("--agents", type=int, required=True)
    p_sim.add_argument("--transactions", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--m0", type=float, default=1.0, help="equal initial money per agent")
    p_sim.add_argument("--bins", type=int, default=200)
    p_sim.add_argument("--m-max", type=float, default=None, help="histogram cut (default 10 * the mean money at the start)")
    p_sim.add_argument("--out", type=Path, default=Path("."))
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the operator property suite")
    p_ver.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    p_ver.add_argument("--x-max", type=float, default=VerifySettings.x_max)
    p_ver.add_argument("--seed", type=int, default=VerifySettings.seed)
    p_ver.add_argument("--out", type=Path, default=Path("."))
    p_ver.set_defaults(func=cmd_verify)

    p_fam = sub.add_parser("families", help="reproduce the closed-form family checks")
    p_fam.add_argument(
        "--family",
        choices=FAMILY_KINDS,
        default=None,
        help="restrict to a single family member instead of the full lattice",
    )
    _add_family_options(p_fam)
    p_fam.add_argument("--n-points", type=int, default=FAMILIES_DEFAULT_N_POINTS)
    p_fam.add_argument("--out", type=Path, default=Path("."))
    p_fam.set_defaults(func=cmd_families)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, options = args.func(args)
        write_json(Path(args.out) / "manifest.json",
                   {"subcommand": args.subcommand, "options": options, "version": __version__})
        return code
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
