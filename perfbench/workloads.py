"""The four benchmark workloads: seeded inputs, the measured job, the output gate.

Each workload is a closed loop of one caller running one job at a time.  Its
``setup`` turns the seed into the program's inputs (outside the timed
region), ``job`` is the timed call into wealthgas, and ``check`` is the
output gate: the program's own invariants, recomputed here with plain numpy
rather than with wealthgas, plus a comparison against ``reference.json``,
recorded from the commit that introduced this benchmark.

Importing this module imports numpy and wealthgas; ``run.py`` times that
import as part of ``setup_s``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from wealthgas import cli, evolution, grid

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Reference gate: |got - ref| <= MAX_ABS_DELTA * max(1, |ref|).  Not bit
# equality: changing only the BLAS thread count already moves the final
# dist_to_target in its 16th digit.
MAX_ABS_DELTA = 1e-10

# Invariant gates.  Beyond rounding, the cut at x_max drops up to ~1e-12 of
# mass at x ~ x_max = 40*mean, which moves the mean up to 40 times as much.
NORM_SQUARING_TOL = 1e-11  # |norm_k - norm_{k-1}^2|
MEAN_DRIFT_TOL = 1e-10  # |mean_k - mean_0| / mean_0
REPORT_MATCH_TOL = 1e-12  # reported norm/mean against the recomputed ones
FAMILIES_GAP_LIMIT = 1e-3  # numerical T(y) against the closed-form oracle, L1
FIXED_POINT_DIST = 1e-12  # lattice members this close to their exponential need not contract
MONEY_DRIFT_TOL = 1e-9  # |sum(m) - N*m0| / (N*m0)
KS_COEFF = 2.0  # KS <= KS_COEFF / sqrt(N), above the 99.9% Kolmogorov quantile 1.95


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, smaller ones a smoke run."""

    operator_points: int = 262145
    operator_steps: int = 16
    iterate_points: int = 32769
    iterate_steps: int = 10
    families_points: int = 8193
    gas_agents: int = 100_000
    gas_transactions: int = 1_000_000


DEFAULT_SIZES = Sizes()


def seeded_mixture(seed: int, n_points: int) -> grid.Density:
    """Unit-mass mixture of 2-3 gamma/exponential components, drawn from ``seed``.

    Component means lie in [0.6, 1.6] and orders in 0..3, so every iterate
    stays well inside the default 40*mean domain.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    orders = rng.integers(0, 4, size=k)
    means = rng.uniform(0.6, 1.6, size=k)
    weights = rng.dirichlet(np.ones(k))
    g = grid.default_grid(float(weights @ means), n_points)
    x = g.nodes
    vals = np.zeros_like(x)
    for w, n, m in zip(weights, orders, means):
        rate = (n + 1) / m
        vals += w * rate ** (n + 1) * x**n * np.exp(-rate * x) / math.factorial(n)
    y = grid.Density(g, vals)
    return y.scaled(1.0 / grid.quad_norm(y))


def trapezoid_moments(values: np.ndarray, h: float) -> tuple[float, float]:
    """Zeroth and first trapezoid moments on the nodes x_i = i*h."""
    x = h * np.arange(values.shape[0])
    w = np.full(values.shape[0], h)
    w[0] = w[-1] = 0.5 * h
    return float(w @ values), float(w @ (x * values))


def check_trajectory(moments, reports) -> list[str]:
    """Norm squaring, mean conservation, report agreement, monotone convergence.

    ``moments`` holds (norm, first moment) recomputed from the densities,
    starting with the initial one; a density not read back is (None, None).
    ``reports`` holds the program's (step, norm, mean, dist) rows, one per
    step.  T maps mass c to c^2 and first moment M1 to c*M1, so the
    conserved quantity is M1/norm, not the reported unnormalized mean.
    """
    bad = []
    norm_prev, m1_prev = moments[0]
    mean0 = m1_prev / norm_prev
    for k, (norm, m1) in enumerate(moments[1:], start=1):
        _, r_norm, r_m1, _ = reports[k - 1]
        if norm is None:
            norm_prev = r_norm
            continue
        if abs(norm - norm_prev**2) > NORM_SQUARING_TOL:
            bad.append(f"step {k}: norm {norm!r} is not the square of {norm_prev!r}")
        if abs(m1 / norm - mean0) > MEAN_DRIFT_TOL * mean0:
            bad.append(f"step {k}: mean {m1 / norm!r} drifted from {mean0!r}")
        if abs(r_norm - norm) > REPORT_MATCH_TOL or abs(r_m1 - m1) > REPORT_MATCH_TOL * mean0:
            bad.append(f"step {k}: reported norm/mean differ from the density's")
        norm_prev = norm
    if [r[0] for r in reports] != list(range(1, len(reports) + 1)):
        bad.append("report steps are not 1..n")
    dists = [r[3] for r in reports]
    if any(b > a for a, b in zip(dists, dists[1:])):
        bad.append(f"dist_to_target is not nonincreasing: {dists}")
    return bad


def compare_reference(digest: dict, ref: dict) -> list[str]:
    bad = []
    if set(digest) != set(ref):
        return [f"digest keys {sorted(digest)} differ from reference {sorted(ref)}"]
    for key, ref_vals in ref.items():
        got = np.atleast_1d(np.asarray(digest[key], dtype=np.float64))
        want = np.atleast_1d(np.asarray(ref_vals, dtype=np.float64))
        if got.shape != want.shape:
            bad.append(f"reference {key}: shape {got.shape} != {want.shape}")
            continue
        delta = np.abs(got - want)
        limit = MAX_ABS_DELTA * np.maximum(1.0, np.abs(want))
        if np.any(delta > limit):
            bad.append(f"reference {key}: max |delta| {float(delta.max()):.3e} exceeds {MAX_ABS_DELTA:.0e}")
    return bad


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_second_column(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


class Workload:
    """One benchmark workload at fixed sizes; subclasses fill in the four steps."""

    name = ""
    work_unit = ""

    def __init__(self, sizes: Sizes = DEFAULT_SIZES):
        self.sizes = sizes

    @property
    def work(self) -> int:
        """Work units per job, the numerator of ``work_per_s``."""
        raise NotImplementedError

    @property
    def points(self) -> int | None:
        """Grid size the job's operator calls run at (None: no operator)."""
        return None

    def setup(self, seed: int, workdir) -> dict:
        raise NotImplementedError

    def job(self, inputs: dict, outdir: Path):
        raise NotImplementedError

    def check(self, inputs: dict, outdir: Path, result) -> tuple[list[str], dict]:
        """Invariant failures (empty when the output is good) and the reference digest."""
        raise NotImplementedError

    def reference_key(self, seed: int) -> str:
        return str(seed)


class OperatorWorkload(Workload):
    """Library ``iterate_operator`` on a seeded mixture; apply_operator's FFT dominates."""

    name = "operator"
    work_unit = "node-steps"

    @property
    def work(self):
        return self.sizes.operator_points * self.sizes.operator_steps

    @property
    def points(self):
        return self.sizes.operator_points

    def setup(self, seed, workdir):
        return {"y0": seeded_mixture(seed, self.sizes.operator_points)}

    def job(self, inputs, outdir):
        return evolution.iterate_operator(inputs["y0"], self.sizes.operator_steps)

    def check(self, inputs, outdir, result):
        densities, reports = result
        if len(reports) != self.sizes.operator_steps:
            return [f"{len(reports)} steps reported, {self.sizes.operator_steps} requested"], {}
        h = inputs["y0"].grid.spacing
        moments = [trapezoid_moments(d.values, h) for d in densities]
        rows = [(r.step, r.norm, r.mean, r.dist_to_target) for r in reports]
        bad = check_trajectory(moments, rows)
        final = densities[-1].values
        digest = {
            "dist_to_target": [r.dist_to_target for r in reports],
            "step_delta": [r.step_delta for r in reports],
            "final_samples": final[:: max(1, final.shape[0] // 8)].tolist(),
        }
        return bad, digest


class IterateWorkload(Workload):
    """``wealthgas iterate`` from a seeded CSV; the density CSV writer dominates."""

    name = "iterate"
    work_unit = "node-steps"

    @property
    def work(self):
        return self.sizes.iterate_points * self.sizes.iterate_steps

    @property
    def points(self):
        return self.sizes.iterate_points

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        y0 = seeded_mixture(seed, self.sizes.iterate_points)
        path = workdir / "initial.csv"
        # written here rather than with grid.write_density_csv, so a change to
        # the program's writer does not move setup_s
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("x", "density"))
            writer.writerows((f"{x:.17g}", f"{v:.17g}") for x, v in zip(y0.grid.nodes, y0.values))
        values = _read_second_column(path)
        return {"path": str(path), "h": y0.grid.spacing, "moments0": trapezoid_moments(values, y0.grid.spacing)}

    def job(self, inputs, outdir):
        argv = ["iterate", "--initial", inputs["path"], "--steps", str(self.sizes.iterate_steps),
                "--out", str(outdir)]
        return cli.main(argv)

    def check(self, inputs, outdir, result):
        if result != 0:
            return [f"wealthgas iterate exited {result}"], {}
        steps = self.sizes.iterate_steps
        rows = _read_csv(outdir / "report.csv")
        if len(rows) != steps:
            return [f"{len(rows)} steps reported, {steps} requested"], {}
        reports = [(int(r["step"]), float(r["norm"]), float(r["mean"]), float(r["dist_to_target"]))
                   for r in rows]
        final = _read_second_column(outdir / f"density_step_{steps:03d}.csv")
        if final.shape[0] != self.sizes.iterate_points:
            return [f"final density has {final.shape[0]} nodes, expected {self.sizes.iterate_points}"], {}
        moments = [inputs["moments0"]] + [(None, None)] * (steps - 1)
        moments.append(trapezoid_moments(final, inputs["h"]))
        bad = check_trajectory(moments, reports)
        digest = {
            "dist_to_target": [r[3] for r in reports],
            "step_delta": [float(r["step_delta"]) for r in rows],
            "final_samples": final[:: max(1, final.shape[0] // 8)].tolist(),
        }
        return bad, digest


class FamiliesWorkload(Workload):
    """``wealthgas families`` over the fixed 54-spec lattice; the per-node E1 loop dominates."""

    name = "families"
    work_unit = "specs"

    N_SPECS = 54

    @property
    def work(self):
        return self.N_SPECS

    @property
    def points(self):
        return self.sizes.families_points

    def setup(self, seed, workdir):
        # the lattice is fixed; the seed is recorded but selects nothing
        return {}

    def job(self, inputs, outdir):
        return cli.main(["families", "--n-points", str(self.sizes.families_points), "--out", str(outdir)])

    def check(self, inputs, outdir, result):
        if result != 0:
            return [f"wealthgas families exited {result}"], {}
        rows = _read_csv(outdir / "families.csv")
        bad = []
        if len(rows) != self.N_SPECS:
            bad.append(f"{len(rows)} lattice rows, expected {self.N_SPECS}")
        for r in rows:
            label = f"{r['family']}(alpha={r['alpha']}, beta={r['beta']}, n={r['n']}, eps={r['eps']})"
            before, after, gap = float(r["d_before"]), float(r["d_after"]), float(r["oracle_l1_gap"])
            # n=0 members are the exponential itself: both distances are ~0
            if before > FIXED_POINT_DIST and (r["contracted"] != "true" or not after < before):
                bad.append(f"{label}: closed-form step did not contract ({before!r} -> {after!r})")
            if not gap <= FAMILIES_GAP_LIMIT:
                bad.append(f"{label}: oracle_l1_gap {gap!r} > {FAMILIES_GAP_LIMIT}")
        digest = {col: [float(r[col]) for r in rows] for col in ("d_before", "d_after", "oracle_l1_gap")}
        return bad, digest

    def reference_key(self, seed):
        return "any"


class GasWorkload(Workload):
    """``wealthgas simulate`` with the run's seed; the Python exchange loop dominates."""

    name = "gas"
    work_unit = "transactions"

    @property
    def work(self):
        return self.sizes.gas_transactions

    def setup(self, seed, workdir):
        return {"seed": seed}

    def job(self, inputs, outdir):
        argv = ["simulate", "--agents", str(self.sizes.gas_agents),
                "--transactions", str(self.sizes.gas_transactions),
                "--seed", str(inputs["seed"]), "--out", str(outdir)]
        return cli.main(argv)

    def check(self, inputs, outdir, result):
        if result != 0:
            return [f"wealthgas simulate exited {result}"], {}
        n = self.sizes.gas_agents
        money = _read_second_column(outdir / "ensemble.csv")
        with open(outdir / "fit.json") as f:
            fit = json.load(f)
        bad = []
        if money.shape[0] != n:
            return [f"{money.shape[0]} agents written, {n} simulated"], {}
        if money.min() < 0.0:
            bad.append(f"negative balance {money.min()!r}")
        total = float(money.sum())
        if abs(total - n) > MONEY_DRIFT_TOL * n:
            bad.append(f"money not conserved: total {total!r}, expected {n}")
        ms = np.sort(money)
        ecdf = np.searchsorted(ms, ms, side="right") / n
        ks = float(np.max(np.abs(ecdf - (1.0 - np.exp(-ms * n / total)))))
        if ks > KS_COEFF / math.sqrt(n):
            bad.append(f"KS {ks:.4g} to the fitted exponential exceeds {KS_COEFF}/sqrt(N)")
        if abs(fit["ks_statistic"] - ks) > 1e-12 or abs(fit["beta_hat"] - n / total) > 1e-12:
            bad.append("fit.json disagrees with the recomputed fit")
        if fit["transactions_done"] != self.sizes.gas_transactions:
            bad.append(f"fit.json reports {fit['transactions_done']} transactions")
        digest = {"ks": ks, "beta_hat": fit["beta_hat"], "sum_m2": float(money @ money),
                  "max_m": float(ms[-1])}
        return bad, digest


WORKLOADS = {cls.name: cls for cls in (OperatorWorkload, IterateWorkload, FamiliesWorkload, GasWorkload)}


def make(name: str, sizes: Sizes = DEFAULT_SIZES) -> Workload:
    return WORKLOADS[name](sizes)


def load_reference(workload: Workload, seed: int) -> dict | None:
    """The recorded digest for this workload and seed, or None if there is none.

    References exist only for the default sizes and the seeds in
    ``reference.json``; other runs are gated on the invariants alone.
    """
    if workload.sizes != DEFAULT_SIZES:
        return None
    with open(REFERENCE_PATH) as f:
        table = json.load(f)
    if table["sizes"] != asdict(DEFAULT_SIZES):
        raise ValueError("reference.json was recorded at other sizes; re-run record_reference.py")
    return table["workloads"].get(workload.name, {}).get(workload.reference_key(seed))
