"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, in both modes, that the gate rejects corrupted outputs, and that
the command fails without a result where there are no sources to measure.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(operator_points=2049, operator_steps=3, iterate_points=1025, iterate_steps=3,
                       families_points=2049, gas_agents=2000, gas_transactions=20000)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, record = run.run(name, seed=3, seconds=0.2, trace=bool(trace), sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    assert record["env"]["nproc"] >= 1 and "blas_threads" in record["env"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt_operator(result, outdir):
    densities, reports = result
    return densities[:-1] + [densities[-1].scaled(1.01)], reports


def _corrupt_iterate(result, outdir):
    path = outdir / f"density_step_{TINY.iterate_steps:03d}.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[:, 1] *= 1.01
    np.savetxt(path, data, delimiter=",", header="x,density", comments="", fmt="%.17g")
    return result


def _corrupt_families(result, outdir):
    path = outdir / "families.csv"
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[-1]["oracle_l1_gap"] = "0.5"
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return result


def _corrupt_gas(result, outdir):
    path = outdir / "ensemble.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0,-1"
    path.write_text("\n".join(lines) + "\n")
    return result


CORRUPT = {"operator": _corrupt_operator, "iterate": _corrupt_iterate, "families": _corrupt_families,
           "gas": _corrupt_gas}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_gate_rejects_corrupted_output(name, tmp_path):
    workload = workloads.make(name, TINY)
    inputs = workload.setup(5, tmp_path / "inputs")
    outdir = tmp_path / "out"
    result = workload.job(inputs, outdir)
    bad, digest = workload.check(inputs, outdir, result)
    assert bad == []
    assert workloads.compare_reference(digest, digest) == []
    shifted = {k: np.asarray(v) * (1 + 1e-8) + 1e-8 for k, v in digest.items()}
    assert workloads.compare_reference(shifted, digest) != []
    bad, _ = workload.check(inputs, outdir, CORRUPT[name](result, outdir))
    assert bad != []


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gas", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
