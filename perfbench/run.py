"""Run one benchmark workload for a fixed measuring window and print its metrics.

    python3 perfbench/run.py --workload operator --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout: the program is imported from the
checkout's ``src/``.  With ``--trace 0`` the jobs run untraced and the result
carries the end-to-end metrics; with ``--trace 1`` traced and untraced jobs
alternate and the result carries the per-layer metrics.  Every job's output
goes through the workload's gate.  The last line of standard output is the
result object; the line before it is the detail record (environment,
samples, quartiles), which ``--out`` also writes to a file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("operator", "iterate", "families", "gas")
SETUP_SAMPLES = 7
PROBE_REPEATS = 5
# Kept out of tuning; a claimed gain must also hold on this seed.
HELD_OUT_SEED = 20261017

_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
t0 = time.perf_counter()
import workloads
workloads.make({name!r}, workloads.Sizes(**{sizes!r})).setup({seed!r}, {workdir!r})
print(time.perf_counter() - t0)
"""


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library (None if unknown)."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """What the numbers depend on besides the code.  BLAS threads are recorded, not pinned."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "wealthgas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


class Runner:
    """Runs and gates jobs of one workload, counting attempts and failures."""

    def __init__(self, workload, inputs, outdir: Path, reference, compare):
        self.workload = workload
        self.compare = compare
        self.inputs = inputs
        self.outdir = outdir
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def once(self) -> tuple[float, float]:
        """One job: (wall seconds, process CPU seconds).  The gate runs after the clock stops."""
        self.attempted += 1
        wall = cpu = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = self.workload.job(self.inputs, self.outdir)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            bad, digest = self.workload.check(self.inputs, self.outdir, result)
            if self.reference is not None and not bad:
                bad = self.compare(digest, self.reference)
        except Exception:  # a job or gate that raises is a failed job; keep measuring
            bad = [traceback.format_exc()]
            if wall is None:
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if bad:
            self.failures.append(f"job {self.attempted}: " + "; ".join(bad))
        return wall, cpu


def _window(seconds, step):
    """Call ``step`` (which returns its wall time) until another call would overrun ``seconds``."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(step())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def _setup_times(name, seed, sizes, work: Path) -> list[float]:
    """Import plus input generation, each in a fresh interpreter."""
    times = []
    for k in range(SETUP_SAMPLES):
        code = _SETUP_PROBE.format(bench=str(BENCH_DIR), src=str(SRC), name=name, sizes=asdict(sizes),
                                   seed=seed, workdir=str(work / f"setup{k}"))
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{out.stderr}")
        times.append(float(out.stdout.split()[-1]))
    return times


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """One benchmark run: (result object, detail record)."""
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    sizes = sizes or workloads.DEFAULT_SIZES
    work = WORKDIR / f"{name}-{os.getpid()}"
    try:
        setup_samples = _setup_times(name, seed, sizes, work)
        workload = workloads.make(name, sizes)
        inputs = workload.setup(seed, work / "inputs")
        reference = workloads.load_reference(workload, seed)
        runner = Runner(workload, inputs, work / "out", reference, workloads.compare_reference)
        runner.once()  # warm-up: gated and counted, not timed
        # a CLI user's process runs one job; later jobs only add allocator drift
        one_job_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "sizes": asdict(sizes), "env": environment(),
                  "reference_checked": reference is not None, "held_out_seed": HELD_OUT_SEED}
        if trace:
            metrics = _traced(runner, workload, seconds, record)
        else:
            walls = _window(seconds, lambda: runner.once()[0])
            wall = statistics.median(walls)
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (statistics.median(setup_samples), "s"),
                "peak_rss_mb": (one_job_rss_mb, "MB"),
                "ok_frac": ((runner.attempted - len(runner.failures)) / runner.attempted, "frac"),
                "work_per_s": (workload.work / wall, "1/s"),
            }
            record.update({"wall_samples_s": walls, "wall_quartiles_s": _quartiles(walls),
                           "setup_samples_s": setup_samples,
                           "work_per_job": {workload.work_unit: workload.work}})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["failures"] = runner.failures[:5]
    return result, record


def _traced(runner, workload, seconds, record) -> dict:
    """Alternate untraced and traced jobs; per-layer metrics from the traced ones."""
    import numpy as np
    import spans
    from wealthgas import evolution, grid

    tracer = spans.Tracer()
    plain, traced, jobs = [], [], []

    def pair():
        plain.append(runner.once())
        tracer.install()
        try:
            traced.append(runner.once())
        finally:
            tracer.remove()
        jobs.append(spans.summarize_job(tracer.take()))
        return plain[-1][0] + traced[-1][0]

    _window(seconds, pair)
    traced_wall = [w for w, _ in traced]
    plain_wall = [w for w, _ in plain]
    metrics = spans.layer_metrics(jobs, traced_wall)
    probe_ms = 0.0
    if workload.points is not None:
        g = grid.default_grid(1.0, workload.points)
        y = grid.Density(g, np.exp(-g.nodes))
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            evolution.autoconvolve(y)
            times.append(time.perf_counter() - t0)
        probe_ms = 1e3 * statistics.median(times)
    metrics["evolution.autoconvolve.ms"] = (probe_ms, "ms")
    metrics["process.cpu_per_wall"] = (sum(c for _, c in plain) / sum(plain_wall), "ratio")
    metrics["trace_overhead_frac"] = (statistics.median(traced_wall) / statistics.median(plain_wall) - 1.0,
                                      "frac")
    metrics["traced.wall_s"] = (statistics.median(traced_wall), "s")
    record.update({"wall_samples_s": plain_wall, "traced_wall_samples_s": traced_wall,
                   "wall_quartiles_s": _quartiles(plain_wall)})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the detail record here")
    args = parser.parse_args(argv)
    if not (SRC / "wealthgas" / "__init__.py").is_file():
        print(f"error: no wealthgas sources at {SRC / 'wealthgas'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(failure, file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps({**record, "result": result}, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
