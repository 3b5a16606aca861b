"""Record ``reference.json``: the gate's digests of the current program's outputs.

    python3 perfbench/record_reference.py

Runs every workload at the default sizes for each reference seed (families
once: its lattice ignores the seed), requires each output to pass the
invariant gates, and stores the digests the reference gate compares
against.  Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import asdict

from run import BENCH_DIR, HELD_OUT_SEED, SRC, WORKDIR

REFERENCE_SEEDS = list(range(64)) + [HELD_OUT_SEED]


def main() -> int:
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    table = {"sizes": asdict(workloads.DEFAULT_SIZES), "max_abs_delta": workloads.MAX_ABS_DELTA,
             "workloads": {}}
    work = WORKDIR / "reference"
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name)
            digests = table["workloads"][name] = {}
            for seed in REFERENCE_SEEDS:
                key = workload.reference_key(seed)
                if key in digests:
                    continue
                inputs = workload.setup(seed, work / "inputs")
                result = workload.job(inputs, work / "out")
                bad, digests[key] = workload.check(inputs, work / "out", result)
                if bad:
                    print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                print(f"{name} seed {seed}: ok", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
