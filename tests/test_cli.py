"""CLI contract tests: files, exit codes, manifests, reproducibility."""

import csv
import json
import warnings

import numpy as np
import pytest

from wealthgas import Density, cli, make_grid, write_density_csv
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
    # the triangle, the operator step and its mass defect form no power of x,
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


@pytest.mark.parametrize(
    "option", [["--family", "exponential", "--alpha", "inf"], ["--family", "mix", "--beta", "inf"]]
)
def test_iterate_rejects_an_infinite_rate(tmp_path, capsys, option):
    # named in the message, with no numpy warning on the way (the suite makes warnings errors)
    out = tmp_path / "out"
    assert run_cli(["iterate", *option, "--out", out]) == 2
    assert f"{option[2][2:]} must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


_DEFAULT_GRID_MEAN = "mean must be positive with 40 * mean finite, got "
_TRIANGLE_SLOPE = " is too small for this grid: the triangle's slope x/mean^2 overflows"


@pytest.mark.parametrize("option, message", [
    (["--family", "triangle", "--mean", "-1"], _DEFAULT_GRID_MEAN + "-1.0"),
    (["--family", "triangle", "--mean", "0"], _DEFAULT_GRID_MEAN + "0.0"),
    (["--family", "triangle", "--mean", "inf"], _DEFAULT_GRID_MEAN + "inf"),
    (["--family", "triangle", "--mean", "nan"], _DEFAULT_GRID_MEAN + "nan"),
    (["--family", "triangle", "--mean", "1e307"], _DEFAULT_GRID_MEAN + "1e+307"),
    (["--family", "exponential", "--alpha", "1e-310"], _DEFAULT_GRID_MEAN + "inf"),
    (["--family", "mix", "--alpha", "1e-300", "--beta", "1e-310"], _DEFAULT_GRID_MEAN + "inf"),
    (["--family", "triangle", "--mean", "1e-308"], "mean 1e-308" + _TRIANGLE_SLOPE),
    (["--family", "triangle", "--mean", "1e-320"], "mean 1e-320" + _TRIANGLE_SLOPE),
], ids=["negative", "zero", "inf", "nan", "huge", "exponential_tiny_rate", "mix_tiny_rate",
        "tiny", "subnormal"])
def test_iterate_start_out_of_the_default_grids_range_exits_2(tmp_path, capsys, option, message):
    # no --x-max was given, so the message names the mean; no numpy warning on the way (the suite
    # makes warnings errors)
    out = tmp_path / "out"
    assert run_cli(["iterate", *option, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "x_max" not in err
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta", [("1e-200", "1e200"), ("1e200", "1e-200"), ("1", "1e-310")])
def test_families_mix_with_an_overflowing_rate_ratio_exits_2(tmp_path, capsys, alpha, beta):
    # FamilySpec refuses the pair, so the cross term's rate integral never sees a ratio of 1e400
    out = tmp_path / "out"
    assert run_cli(["families", "--family", "mix", "--alpha", alpha, "--beta", beta, "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: the ratio of the rates alpha {float(alpha)} and beta {float(beta)} "
                                       "overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta", [("1", "1.000002"), ("50", "50.0005")])
def test_mix_of_nearly_equal_rates_contracts(tmp_path, alpha, beta):
    # the member lies within 1e-11 of its exponential, and the cross term's rate integral leaves no
    # cancellation to swamp that: one step shrinks the distance, with the oracle at rounding
    assert run_cli(["families", "--family", "mix", "--alpha", alpha, "--beta", beta, "--out", tmp_path]) == 0
    (row,) = read_rows(tmp_path / "families.csv")
    assert row["contracted"] == "true"
    assert float(row["oracle_l1_gap"]) <= 1e-15


@pytest.mark.parametrize("beta", ["1.0000001", "1.0000000000001"])
def test_iterate_mix_of_nearly_equal_rates_stays_on_the_exponential(tmp_path, beta):
    # the closed form's cancellation would have read an oracle_l1_gap of 1e-9 and 8e-4 here;
    # the rate integral keeps every step as near its exponential as the exponential's own run
    assert run_cli(["iterate", "--family", "mix", "--alpha", "1", "--beta", beta, "--steps", "3",
                    "--n-points", "1025", "--out", tmp_path]) == 0
    rows = read_rows(tmp_path / "report.csv")
    assert len(rows) == 3
    assert all(float(r["dist_to_target"]) <= 1e-13 for r in rows)


def test_iterate_mix_of_equal_rates_is_the_exponential(tmp_path):
    # (1/2) a e^(-a x) taken twice sums to a e^(-a x) exactly, so only the manifests differ
    trees = {}
    for name, start in (("mix", ["--family", "mix", "--beta", "2"]), ("exponential", ["--family", "exponential"])):
        out = tmp_path / name
        assert run_cli(["iterate", *start, "--alpha", "2", "--steps", "3", "--n-points", "1025", "--out", out]) == 0
        trees[name] = read_tree(out)
        assert trees[name].pop("manifest.json") != b""
    assert "report.csv" in trees["mix"] and "density_step_003.csv" in trees["mix"]
    assert trees["mix"] == trees["exponential"]


def test_iterate_initial_with_one_positive_tail_sample(tmp_path, capsys):
    g = make_grid(401, 40.0)
    values = np.where(g.nodes < 35.0, np.exp(-g.nodes), 0.0)
    values[-1] = 1e-3
    initial = tmp_path / "ic.csv"
    write_density_csv(initial, Density(g, values))
    assert run_cli(["iterate", "--initial", initial, "--out", tmp_path / "out"]) == 2
    assert "initial density at x_max is 1.000e-03 > 1e-08 * max" in capsys.readouterr().err


def test_iterate_stops_where_rounding_breaks_the_mass_rule(tmp_path, capsys):
    # the default triangle starts at mass 1, but a step maps mass c to c**2, so rounding doubles
    # every step; by step 33 it is past 1e-6, long before step_delta could fall below 1e-9
    out = tmp_path / "out"
    assert run_cli(["iterate", "--steps", "100", "--stop-delta", "1e-9", "--out", out]) == 2
    assert " at step 33 is off 1 by more than 1e-06" in capsys.readouterr().err
    assert not out.exists()


def test_iterate_initial_of_half_mass_exits_2(tmp_path, capsys):
    g = make_grid(401, 40.0)
    initial = tmp_path / "ic.csv"
    write_density_csv(initial, Density(g, 0.5 * np.exp(-g.nodes)))
    out = tmp_path / "out"
    assert run_cli(["iterate", "--initial", initial, "--out", out]) == 2
    assert "error: mass 0.50" in capsys.readouterr().err
    assert not out.exists()


def test_iterate_from_density_file(tmp_path):
    src = tmp_path / "ic"
    assert run_cli(["iterate", "--family", "triangle", "--steps", "1",
                    "--n-points", "1025", "--out", src]) == 0
    out = tmp_path / "out"
    rc = run_cli(["iterate", "--initial", src / "density_step_000.csv",
                  "--steps", "2", "--out", out])
    assert rc == 0
    assert (out / "report.csv").exists()


@pytest.mark.parametrize("option", [["--n-points", "8193"], ["--x-max", "7"]])
def test_iterate_initial_rejects_grid_options(tmp_path, capsys, option):
    # the grid of --initial is the file's; a grid option beside it would be silently ignored
    g = make_grid(257, 40.0)
    initial = tmp_path / "ic.csv"
    write_density_csv(initial, Density(g, np.exp(-g.nodes)))
    out = tmp_path / "out"
    assert run_cli(["iterate", "--initial", initial, *option, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: --n-points and --x-max do not apply with --initial: the grid is the file's\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["iterate", "--family", "triangle", "--alpha", "5", "--n", "3"],
     "--alpha, --n do not apply to --family triangle"),
    (["iterate", "--family", "gamma", "--mean", "7"], "--mean does not apply to --family gamma"),
    (["iterate", "--initial", "IC", "--eps", "0.1"],
     "--eps does not apply with --initial: the start is the file's"),
    (["families", "--alpha", "7"], "--alpha does not apply to the lattice run; name one member with --family"),
    (["families", "--family", "exponential", "--n", "4"], "--n does not apply to --family exponential"),
], ids=["triangle", "gamma_mean", "initial", "lattice", "exponential_n"])
def test_start_options_the_run_does_not_use_exit_2(tmp_path, capsys, args, message):
    # an option the chosen start or family does not use would otherwise be silently ignored
    g = make_grid(257, 40.0)
    write_density_csv(tmp_path / "ic.csv", Density(g, np.exp(-g.nodes)))
    out = tmp_path / "out"
    assert run_cli([tmp_path / "ic.csv" if a == "IC" else a for a in args] + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
    "extra",
    [["--m0", "inf"], ["--m0", "1e308"], ["--m0", "nan"], ["--m-max", "inf"],
     ["--m0", "1e-310"], ["--m0", "1e-320"], ["--m0", "1e-307"]],
)
def test_simulate_rejects_non_finite_money(tmp_path, extra):
    # --m0 1e308 overflows the total money of 10 agents; 1/1e-310 and 1/1e-320
    # overflow the fitted rate, both rules of AgentEnsemble, and at --m0 1e-307
    # the default cut 10 * mean gives 200 bins whose density overflows.  None of
    # them may emit a numpy warning, which the suite turns into an error.
    out = tmp_path / "out"
    rc = run_cli(["simulate", "--agents", "10", "--transactions", "10", "--out", out] + extra)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [["--bins", "1"], ["--m-max", "inf"], ["--m-max", "0"], ["--m-max", "1e-307"], ["--m0", "1e-307"]],
)
def test_simulate_rejects_histogram_options_before_running(tmp_path, monkeypatch, extra):
    def fail(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the options were checked")

    monkeypatch.setattr(cli, "run_transactions", fail)
    out = tmp_path / "out"
    rc = run_cli(["simulate", "--agents", "10", "--transactions", "10", "--out", out] + extra)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("m0, message", [
    ("0", "mean money must be positive with a finite rate 1/mean, got 0.0"),
    ("1e-310", "mean money must be positive with a finite rate 1/mean, got 1e-310"),
    ("-1", "money must be finite and nonnegative, got -1.0 at agent 0"),
    ("nan", "money must be finite and nonnegative, got nan at agent 0"),
    ("inf", "money must be finite and nonnegative, got inf at agent 0"),
    ("1e308", "total money overflows"),
    ("1e-307", "--m0 1e-307 puts the default histogram cut 10 * m0 out of range for 200 bins"),
])
def test_simulate_names_the_rule_that_rejects_m0(tmp_path, capsys, monkeypatch, m0, message):
    # every rule but the cut's is the ensemble's own; all are checked before the Monte Carlo runs
    def fail(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before --m0 was checked")

    monkeypatch.setattr(cli, "run_transactions", fail)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--agents", "10", "--transactions", "10", "--m0", m0, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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


@pytest.mark.parametrize("family, beta, scale", [
    ("gamma", None, 1e-160), ("mix", 3.0, 1e-200), ("mix", 3.0, 1e200),
    ("mix", 1.000002, 1e-200), ("mix", 1.000002, 1e200),
], ids=["gamma-1e-160", "mix-1e-200", "mix-1e+200", "near_mix-1e-200", "near_mix-1e+200"])
def test_families_row_is_scale_free_in_the_rates(tmp_path, family, beta, scale):
    # every rate times `scale` describes the same member on a dilated axis
    rows = {}
    for c in (1.0, scale):
        args = ["--n", 1] if family == "gamma" else ["--beta", beta * c]
        rc = run_cli(["families", "--family", family, "--alpha", c, *args,
                      "--n-points", 4097, "--out", tmp_path / str(c)])
        assert rc == 0
        (rows[c],) = read_rows(tmp_path / str(c) / "families.csv")
    assert rows[scale]["contracted"] == rows[1.0]["contracted"] == "true"
    for key in ("d_before", "d_after", "oracle_l1_gap"):
        assert float(rows[scale][key]) == pytest.approx(float(rows[1.0][key]), rel=0.0, abs=1e-12)


def test_families_default_runs_the_whole_lattice(tmp_path):
    assert run_cli(["families", "--n-points", "2049", "--out", tmp_path]) == 0
    rows = read_rows(tmp_path / "families.csv")
    assert len(rows) == 54
    assert json.loads((tmp_path / "manifest.json").read_text())["options"] == {
        "n_points": 2049, "family": None, "alpha": None, "beta": None, "n": None, "eps": None,
    }


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


@pytest.mark.parametrize("args", [["iterate", "--family", "exponential", "--alpha", "3"], ["verify"]],
                         ids=["iterate", "verify"])
def test_overflowing_x_max_exits_2(tmp_path, capsys, args):
    # rate * x overflows on [0, 1e308]: the shapes fall between the nodes, and the message names the
    # grid, with no numpy warning on the way (the suite makes warnings errors)
    out = tmp_path / "out"
    assert run_cli([*args, "--x-max", "1e308", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Grid(n_points=4097, x_max=1e+308)" in err
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
