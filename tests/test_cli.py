"""CLI contract tests: files, exit codes, manifests, reproducibility."""

import csv
import json
import warnings

import pytest

from wealthgas import cli
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


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_iterate_is_scale_free_in_the_mean(tmp_path):
    # the triangle, the operator step and the tail fit form no power of x,
    # so a run at mean 1e+-200 reports what the mean-1 run does
    reports = {}
    for mean in ("1", "1e200", "1e-200"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["iterate", "--mean", mean, "--steps", "8", "--out", tmp_path / mean])
        assert rc == 0
        reports[mean] = read_rows(tmp_path / mean / "report.csv")
    for mean in ("1e200", "1e-200"):
        for row, ref in zip(reports[mean], reports["1"], strict=True):
            for key in ("dist_to_target", "step_delta"):
                assert float(row[key]) == pytest.approx(float(ref[key]), rel=1e-11, abs=0.0)
            assert float(row["norm"]) == pytest.approx(float(ref["norm"]), rel=0.0, abs=1e-12)


def test_iterate_rejects_stop_delta_that_cannot_stop(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["iterate", "--stop-delta", "nan", "--steps", "3", "--out", out]) == 2
    assert "early_stop_delta" in capsys.readouterr().err
    assert not out.exists()


def test_iterate_missing_input_no_partial_outputs(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["iterate", "--initial", tmp_path / "missing.csv", "--out", out])
    assert rc != 0
    assert not out.exists()


def test_iterate_directory_as_initial_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli(["iterate", "--initial", tmp_path, "--out", out])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_iterate_out_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = run_cli(["iterate", "--steps", "1", "--n-points", "65", "--out", out])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert out.read_text() == ""


@pytest.mark.parametrize("n_points", [16, 21])
def test_iterate_triangle_between_the_nodes_exits_2(tmp_path, capsys, n_points):
    # at spacing 40/(N-1) >= 2 the triangle on [0, 2] is zero at every node
    out = tmp_path / "out"
    assert run_cli(["iterate", "--n-points", n_points, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Grid(n_points={n_points}, x_max=40.0)" in err
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


@pytest.mark.parametrize("extra", [["--bins", "1"], ["--m-max", "inf"], ["--m-max", "0"]])
def test_simulate_rejects_histogram_options_before_running(tmp_path, monkeypatch, extra):
    def fail(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the options were checked")

    monkeypatch.setattr(cli, "run_transactions", fail)
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


@pytest.mark.parametrize("family, scale", [("gamma", 1e-160), ("mix", 1e-200), ("mix", 1e200)])
def test_families_row_is_scale_free_in_the_rates(tmp_path, family, scale):
    # every rate times `scale` describes the same member on a dilated axis
    rows = {}
    for c in (1.0, scale):
        args = ["--n", 1] if family == "gamma" else ["--beta", 3.0 * c]
        rc = run_cli(["families", "--family", family, "--alpha", c, *args,
                      "--n-points", 4097, "--out", tmp_path / str(c)])
        assert rc == 0
        (rows[c],) = read_rows(tmp_path / str(c) / "families.csv")
    assert rows[scale]["contracted"] == rows[1.0]["contracted"] == "true"
    for key in ("d_before", "d_after", "oracle_l1_gap"):
        assert float(rows[scale][key]) == pytest.approx(float(rows[1.0][key]), rel=0.0, abs=1e-12)


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


def test_verify_underflowing_domain_exits_2(tmp_path, capsys):
    # on [0, 1e-300] the random gamma shapes underflow to zero mass
    out = tmp_path / "out"
    assert run_cli(["verify", "--x-max", "1e-300", "--n-points", "65", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x_max=1e-300" in err
    assert not out.exists()


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
