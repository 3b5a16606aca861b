"""CLI contract tests: files, exit codes, manifests, reproducibility."""

import csv
import json

import pytest

from wealthgas.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def read_tree(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


# ---------------------------------------------------------------- iterate


def test_iterate_triangle_outputs(tmp_path):
    rc = run_cli(["iterate", "--family", "triangle", "--steps", "5",
                  "--n-points", "1025", "--out", tmp_path])
    assert rc == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {f"density_step_{k:03d}.csv" for k in range(6)} <= names
    assert "report.csv" in names and "manifest.json" in names
    with open(tmp_path / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    dists = [float(r["dist_to_target"]) for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_iterate_exponential_near_fixed(tmp_path):
    rc = run_cli(["iterate", "--family", "exponential", "--alpha", "1", "--steps", "3",
                  "--out", tmp_path])
    assert rc == 0
    with open(tmp_path / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert all(float(r["dist_to_target"]) < 1e-5 for r in rows)


def test_iterate_missing_input_no_partial_outputs(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["iterate", "--initial", tmp_path / "missing.csv", "--out", out])
    assert rc != 0
    assert not out.exists()


def test_iterate_reproducible_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["iterate", "--family", "gamma", "--alpha", "2", "--n", "1",
            "--steps", "3", "--n-points", "1025"]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert read_tree(a) == read_tree(b)


def test_iterate_from_density_file(tmp_path):
    src = tmp_path / "ic"
    assert run_cli(["iterate", "--family", "triangle", "--steps", "1",
                    "--n-points", "1025", "--out", src]) == 0
    out = tmp_path / "out"
    rc = run_cli(["iterate", "--initial", src / "density_step_000.csv",
                  "--steps", "2", "--out", out])
    assert rc == 0
    assert (out / "report.csv").exists()


@pytest.mark.parametrize(
    "text",
    ["", "x,density\n", "x,density\n0.0,1.0\n1.0\n", "x,density\n0.0,1.0\n1.0,abc\n"],
    ids=["empty", "header_only", "short_row", "non_numeric"],
)
def test_iterate_malformed_initial_exits_2(tmp_path, text):
    path = tmp_path / "ic.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["iterate", "--initial", path, "--out", out]) == 2
    assert not out.exists()


# ---------------------------------------------------------------- simulate


def test_simulate_outputs_and_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--agents", "500", "--transactions", "20000", "--seed", "7"]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert read_tree(a) == read_tree(b)
    fit = json.loads((a / "fit.json").read_text())
    assert fit["seed"] == 7
    assert fit["transactions_done"] == 20000
    assert abs(fit["beta_hat"] - 1.0) < 0.05


def test_simulate_rejects_single_agent(tmp_path):
    rc = run_cli(["simulate", "--agents", "1", "--transactions", "10", "--out", tmp_path])
    assert rc != 0


@pytest.mark.parametrize(
    "extra", [["--m0", "inf"], ["--m0", "1e308"], ["--m0", "nan"], ["--m-max", "inf"]]
)
def test_simulate_rejects_non_finite_money(tmp_path, extra):
    # --m0 1e308 overflows the total money of 10 agents
    out = tmp_path / "out"
    rc = run_cli(["simulate", "--agents", "10", "--transactions", "10", "--out", out] + extra)
    assert rc == 2
    assert not out.exists()


# ---------------------------------------------------------------- families


def test_families_single_point(tmp_path):
    rc = run_cli(["families", "--family", "gamma", "--alpha", "2", "--n", "1",
                  "--n-points", "4097", "--out", tmp_path])
    assert rc == 0
    with open(tmp_path / "families.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["contracted"] == "true"
    assert float(rows[0]["d_after"]) < float(rows[0]["d_before"])


def test_families_exponential_is_its_own_image(tmp_path):
    rc = run_cli(["families", "--family", "exponential", "--alpha", "2",
                  "--n-points", "4097", "--out", tmp_path])
    assert rc == 0
    with open(tmp_path / "families.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["d_before"] == rows[0]["d_after"]
    assert rows[0]["contracted"] == "false"
    assert float(rows[0]["oracle_l1_gap"]) <= 1e-12


def test_families_rejects_order_above_cap(tmp_path):
    rc = run_cli(["families", "--family", "gamma", "--n", "41", "--out", tmp_path])
    assert rc == 2


def test_families_rejects_bad_alpha(tmp_path):
    rc = run_cli(["families", "--family", "gamma", "--alpha", "0", "--n", "1",
                  "--out", tmp_path])
    assert rc != 0


# ---------------------------------------------------------------- verify


def test_verify_coarse_resolution_fails(tmp_path):
    rc = run_cli(["verify", "--n-points", "64", "--out", tmp_path])
    assert rc != 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"] is False
    by_name = {p["name"]: p for p in report["properties"]}
    # the transform-side ODE residual is the sharpest resolution detector
    assert by_name["ode_residual_fixed_point"]["pass"] is False
    for p in report["properties"]:
        assert {"name", "measured", "threshold", "comparison", "pass"} <= set(p)


def test_manifest_records_resolved_options(tmp_path):
    assert run_cli(["iterate", "--family", "triangle", "--steps", "1",
                    "--n-points", "1025", "--out", tmp_path]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "iterate"
    assert manifest["options"]["n_points"] == 1025
    assert manifest["options"]["x_max"] == 40.0
    assert manifest["options"]["steps"] == 1
    assert "version" in manifest


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
