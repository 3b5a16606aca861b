"""The pair summary of ``tools/bench_pairs.py`` on canned perfbench results."""

import importlib.util
import json
import os
import statistics
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac", "work_per_s": "1/s"}


def _run(seed, wall, setup=0.1, rss=40.0, ok=1.0, attempted=50, failed=0):
    """One canned ``run_side`` output; work_per_s is 1/wall as in a job of unit work."""
    values = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss, "ok_frac": ok, "work_per_s": 1 / wall}
    return {
        "result": {"attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}},
        "record": {"seed": seed, "reference_checked": True, "env": {"side": "canned"}},
    }


def _pairs():
    walls = [(0.30, 0.20), (0.25, 0.25), (0.28, 0.21), (0.22, 0.24)]
    return [{"seed": seed, "first": "parent" if k % 2 == 0 else "change",
             "parent": _run(seed, p, rss=40.0, attempted=40),
             "change": _run(seed, c, rss=41.0 if k == 3 else 40.0, ok=0.5 if k == 2 else 1.0, failed=k == 2)}
            for k, (seed, (p, c)) in enumerate(zip([1, 2, 3, 20261017], walls))]


def test_summary_of_canned_pairs():
    s = bench_pairs.summarize(_pairs())
    parent_walls = [0.30, 0.25, 0.28, 0.22]
    q1, _, q3 = statistics.quantiles(parent_walls, n=4)
    assert s["parent"]["wall_s"] == {"unit": "s", "median": pytest.approx(0.265), "q1": q1, "q3": q3,
                                     "values": parent_walls}
    assert s["change"]["wall_s"]["median"] == pytest.approx(0.225)
    assert s["parent_wall_s_iqr"] == pytest.approx(q3 - q1)
    assert s["wall_s_ratio_median"] == pytest.approx(statistics.median([0.2 / 0.3, 1.0, 0.21 / 0.28, 0.24 / 0.22]))
    assert s["pairs"][1] == {"seed": 2, "first": "change", "wall_s": [0.25, 0.25]}
    # the tie at seed 2 counts for neither side; lower wins for times, higher for rates
    assert s["change_wins"] == {"wall_s": 2, "setup_s": 0, "peak_rss_mb": 0, "ok_frac": 0, "work_per_s": 2}
    assert {k: s["parent"][k] for k in ("seeds", "runs", "jobs_attempted", "jobs_failed", "reference_checked")} == {
        "seeds": [1, 2, 3, 20261017], "runs": 4, "jobs_attempted": 160, "jobs_failed": 0, "reference_checked": True}
    assert (s["change"]["jobs_attempted"], s["change"]["jobs_failed"]) == (200, 1)
    assert s["change"]["ok_frac"]["median"] == 1.0 and s["change"]["ok_frac"]["q1"] < 1.0
    # 2 wins of 4 pairs is under 0.9 of them, though the medians differ by more than the IQR
    assert s["claim"] == {"pairs": 4, "wall_s_wins": 2, "wall_s_median_delta": pytest.approx(-0.04),
                          "parent_wall_s_iqr": pytest.approx(q3 - q1), "met": False}


def test_claim_needs_nine_tenths_of_the_pairs_and_a_median_gap_beyond_the_iqr():
    def claim(walls):
        pairs = [{"seed": k, "first": "parent", "parent": _run(k, p), "change": _run(k, c)}
                 for k, (p, c) in enumerate(walls)]
        return bench_pairs.summarize(pairs)["claim"]

    steady = [(0.30 + 0.001 * k, 0.20 + 0.001 * k) for k in range(10)]
    assert claim(steady)["met"] and claim(steady)["wall_s_wins"] == 10
    # 9 of 10 wins meet the rule, 8 of 10 do not
    assert claim(steady[:9] + [(0.20, 0.30)])["met"]
    assert not claim(steady[:8] + [(0.20, 0.30)] * 2)["met"]
    # every pair won, but by less than the parent's own spread
    spread = [(0.10 + 0.02 * k, 0.099 + 0.02 * k) for k in range(10)]
    assert claim(spread)["wall_s_wins"] == 10 and not claim(spread)["met"]


def test_main_alternates_the_first_side_and_keeps_other_workloads(tmp_path, monkeypatch):
    calls = []

    def fake_run_side(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        return _run(seed, 0.2 if checkout.name == "change" else 0.3)

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"note": "kept", "workloads": {"gas": {"kept": True}}}))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload",
            "iterate", "--seeds", "1", "2", "3", "--seconds", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    bench = json.loads(out.read_text())
    assert bench["note"] == "kept" and bench["workloads"]["gas"] == {"kept": True}
    assert bench["seconds"] == 5.0
    assert [p["first"] for p in bench["workloads"]["iterate"]["pairs"]] == ["parent", "change", "parent"]
    assert bench["workloads"]["iterate"]["change_wins"]["wall_s"] == 3


def test_main_keeps_the_pairs_measured_before_a_failed_run(tmp_path, monkeypatch, capsys):
    # the fifth perfbench process, the first of pair 3, exits 1: pairs 1 and 2 stay in --out
    calls = []

    def fake_subprocess_run(cmd, cwd, capture_output, text, env):
        # each side runs as the benchmark does, without writing bytecode
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env.get("PATH") == os.environ.get("PATH")
        calls.append(cwd.name)
        seed = int(cmd[cmd.index("--seed") + 1])
        if len(calls) == 5:
            return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback: gate failed\n")
        canned = _run(seed, 0.2 if cwd.name == "change" else 0.3)
        stdout = f"log line\n{json.dumps({'record': canned['record']})}\n{json.dumps(canned['result'])}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload",
            "operator", "--seeds", "1", "2", "3", "4", "--seconds", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert calls == ["parent", "change", "change", "parent", "parent"]
    err = capsys.readouterr().err
    assert err.startswith("operator seed 3: ") and "exited 1:\nTraceback: gate failed" in err
    entry = json.loads(out.read_text())["workloads"]["operator"]
    assert [p["seed"] for p in entry["pairs"]] == [1, 2]
    assert entry["parent"]["wall_s"]["values"] == [0.3, 0.3]


def test_a_checkout_holding_bytecode_caches_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    # PYTHONDONTWRITEBYTECODE stops writing bytecode, not reading it: that side would skip compiling src/
    cache = tmp_path / "change" / "src" / "wealthgas" / "__pycache__"
    cache.mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "run_side", lambda *args: pytest.fail("a run started"))
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload",
            "gas", "--seeds", "1", "--seconds", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert str(cache) in capsys.readouterr().err and not out.exists()


def test_median_change_is_signed_worse_and_read_against_the_bound():
    # change: 20% slower (bound 0.25), 25% more memory (bound 0.2), 2% fewer jobs ok (bound 0.01)
    pairs = [{"seed": seed, "first": "parent", "parent": _run(seed, 0.2),
              "change": _run(seed, 0.24, rss=50.0, ok=0.98)} for seed in (1, 2, 3)]
    changes = bench_pairs.summarize(pairs)["median_change"]
    assert set(changes) == set(UNITS)
    assert changes["wall_s"] == {"worse_by": pytest.approx(0.2), "bound": 0.25, "beyond_bound": False}
    assert changes["work_per_s"]["worse_by"] == pytest.approx(1 - 0.2 / 0.24)
    assert changes["peak_rss_mb"] == {"worse_by": pytest.approx(0.25), "bound": 0.2, "beyond_bound": True}
    assert changes["ok_frac"] == {"worse_by": pytest.approx(0.02), "bound": 0.01, "beyond_bound": True}
    assert changes["setup_s"] == {"worse_by": 0.0, "bound": 0.25, "beyond_bound": False}
    # a better change reads negative
    better = bench_pairs.summarize([{**p, "parent": p["change"], "change": p["parent"]} for p in pairs])
    assert better["median_change"]["wall_s"]["worse_by"] == pytest.approx(-1 / 6)
    assert not any(m["beyond_bound"] for m in better["median_change"].values())
