"""Run alternating parent/change pairs of one benchmark workload and summarize them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload iterate \
        --seeds 1 2 3 20261017 --seconds 25 --out BENCH_<date>-<name>.json

DIR is a source checkout of each side (a `git clone` or `git archive` of a
commit).  For each seed, both sides run `perfbench/run.py --workload W --seed S
--seconds S --trace 0` from their own DIR, one after the other; pair k starts
with the parent when k is even and with the change when k is odd, so neither
side always runs on a fresher machine.  The summary is written to --out in the
shape of the repository's `BENCH_*.json` files: per side the seeds, job
counts and each end-to-end metric's median, quartiles and values; then the
pairs' wall_s, the change's wins per metric (ties count for neither side),
the median per-pair wall_s ratio change/parent, the parent's wall_s
quartile spread, and per metric the relative change of the medians, signed so
that positive means worse, with whether it lies beyond the metric's `bound` in
BENCHMARK.json.  An existing --out file keeps its other workloads and keys,
so several workloads can be gathered into one file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WHAT = ("End-to-end metrics of perfbench workloads at the parent commit and at a change, from "
        "alternating untraced runs of `python3 perfbench/run.py --workload W --seed S --seconds T "
        "--trace 0`; each metric's median and quartiles are taken over the per-run values (each run's "
        "wall_s is itself the median job time of its window). `pairs` lists each pair's wall_s, parent "
        "then change, and which side ran first.")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its result object and detail record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    record_line, result_line = out.stdout.strip().splitlines()[-2:]
    return {"result": json.loads(result_line), "record": json.loads(record_line)["record"]}


def _spread(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _side(runs: list[dict]) -> dict:
    summary = {
        "seeds": [run["record"]["seed"] for run in runs],
        "runs": len(runs),
        "jobs_attempted": sum(run["result"]["attempted"] for run in runs),
        "jobs_failed": sum(run["result"]["failed"] for run in runs),
        "reference_checked": all(run["record"]["reference_checked"] for run in runs),
    }
    for name in METRICS:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        summary[name] = _spread(values, runs[0]["result"]["metrics"][name]["unit"])
    return summary


def _median_changes(parent: dict, change: dict) -> dict:
    """Per metric: how much worse the change's median is than the parent's, relative, against the bound."""
    out = {}
    for name, metric in METRICS.items():
        p, c = parent[name]["median"], change[name]["median"]
        delta = (p - c) if metric["better"] == "higher" else (c - p)
        worse = delta / p if p else math.copysign(math.inf, delta) if delta else 0.0
        out[name] = {"worse_by": worse, "bound": metric["bound"], "beyond_bound": worse > metric["bound"]}
    return out


def summarize(pairs: list[dict]) -> dict:
    """The workload entry of a BENCH file from ``pairs``: dicts with ``seed``, ``first``
    ("parent" or "change") and one ``run_side`` output under each of "parent" and "change"."""
    wins = {}
    for name, metric in METRICS.items():
        sign = 1 if metric["better"] == "higher" else -1
        wins[name] = sum(sign * (p["change"]["result"]["metrics"][name]["value"]
                                 - p["parent"]["result"]["metrics"][name]["value"]) > 0 for p in pairs)
    walls = [[p[side]["result"]["metrics"]["wall_s"]["value"] for side in ("parent", "change")] for p in pairs]
    parent, change = _side([p["parent"] for p in pairs]), _side([p["change"] for p in pairs])
    return {
        "parent": parent,
        "change": change,
        "pairs": [{"seed": p["seed"], "first": p["first"], "wall_s": wall} for p, wall in zip(pairs, walls)],
        "change_wins": wins,
        "wall_s_ratio_median": statistics.median(c / p for p, c in walls),
        "parent_wall_s_iqr": parent["wall_s"]["q3"] - parent["wall_s"]["q1"],
        "median_change": _median_changes(parent, change),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True, help="each run's measuring window")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pairs = []
    for k, seed in enumerate(args.seeds):
        first = "parent" if k % 2 == 0 else "change"
        order = ("parent", "change") if first == "parent" else ("change", "parent")
        pair = {"seed": seed, "first": first}
        for side in order:
            pair[side] = run_side(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        walls = [pair[side]["result"]["metrics"]["wall_s"]["value"] for side in ("parent", "change")]
        print(f"{args.workload} seed {seed}: parent {walls[0]:.4f} s, change {walls[1]:.4f} s", flush=True)
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"what": WHAT}
    bench["seconds"] = args.seconds
    bench.setdefault("workloads", {})[args.workload] = summarize(pairs)
    bench["env"] = {side: pairs[0][side]["record"]["env"] for side in ("parent", "change")}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
