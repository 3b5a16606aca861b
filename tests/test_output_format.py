"""Golden bytes of every output file: one tiny fixed input per writer.

The format: a header row, CRLF line ends, floats at 17 significant digits
(``.17g``), other cells through ``str()``; JSON with ``indent=2``, sorted
keys and a trailing newline.  The other tests compare a run with itself;
these pin the bytes against literals.
"""

import numpy as np
import pytest

from wealthgas import __version__, cli
from wealthgas.agents import (
    AgentEnsemble,
    ExponentialFit,
    HistogramEstimate,
    write_ensemble_csv,
    write_fit_json,
    write_histogram_csv,
)
from wealthgas.evolution import IterationReport, write_reports_csv
from wealthgas.families import ContractionResult, FamilyKind
from wealthgas.grid import Density, make_grid, write_csv, write_density_csv
from wealthgas.verify import PropertyCheck

VERSION = __version__.encode()


def test_write_csv_formats_numpy_scalars_like_python_ones(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), [(np.float64(0.1), 0.1, np.int64(7), "")])
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c,d\r\n0.10000000000000001,0.10000000000000001,7,\r\n"
    )


def test_density_csv_bytes(tmp_path):
    grid = make_grid(16, 15.0)
    write_density_csv(tmp_path / "d.csv", Density(grid, grid.nodes / 3))
    assert (tmp_path / "d.csv").read_bytes() == (
        b"x,density\r\n0,0\r\n1,0.33333333333333331\r\n2,0.66666666666666663\r\n3,1\r\n"
        b"4,1.3333333333333333\r\n5,1.6666666666666667\r\n6,2\r\n7,2.3333333333333335\r\n"
        b"8,2.6666666666666665\r\n9,3\r\n10,3.3333333333333335\r\n11,3.6666666666666665\r\n"
        b"12,4\r\n13,4.333333333333333\r\n14,4.666666666666667\r\n15,5\r\n"
    )


def test_reports_csv_bytes(tmp_path):
    reports = [
        IterationReport(1, 1.0, 0.1, 0.0, 1 / 3, 2.5e-17),
        IterationReport(12, 1.0000000000000002, 1.0, 1e-300, 0.25, 1e20),
    ]
    write_reports_csv(tmp_path / "r.csv", reports)
    assert (tmp_path / "r.csv").read_bytes() == (
        b"step,norm,mean,mass_defect,dist_to_target,step_delta\r\n"
        b"1,1,0.10000000000000001,0,0.33333333333333331,2.4999999999999999e-17\r\n"
        b"12,1.0000000000000002,1,1e-300,0.25,1e+20\r\n"
    )


def test_ensemble_histogram_and_fit_bytes(tmp_path):
    ens = AgentEnsemble(money=np.array([0.1, 2.0, 1e-300]), rng_seed=7, transactions_done=3)
    write_ensemble_csv(tmp_path / "e.csv", ens)
    assert (tmp_path / "e.csv").read_bytes() == (
        b"agent_id,money\r\n0,0.10000000000000001\r\n1,2\r\n2,1e-300\r\n"
    )
    hist = HistogramEstimate(
        bin_edges=np.linspace(0.0, 0.3, 4), densities=np.array([10 / 3, 0.0, 0.5]), n_samples=3
    )
    write_histogram_csv(tmp_path / "h.csv", hist)
    assert (tmp_path / "h.csv").read_bytes() == (
        b"bin_left,bin_right,density\r\n"
        b"0,0.099999999999999992,3.3333333333333335\r\n"
        b"0.099999999999999992,0.19999999999999998,0\r\n"
        b"0.19999999999999998,0.29999999999999999,0.5\r\n"
    )
    write_fit_json(tmp_path / "f.json", ens, ExponentialFit(1 / 0.7, 0.1, 3))
    assert (tmp_path / "f.json").read_bytes() == (
        b'{\n  "beta_hat": 1.4285714285714286,\n  "ks_statistic": 0.1,\n  "n_samples": 3,\n'
        b'  "seed": 7,\n  "transactions_done": 3\n}\n'
    )


def _fixed_contraction(spec, grid, method):
    moved = spec.kind is not FamilyKind.EXPONENTIAL
    return ContractionResult(
        d_before=0.5, d_after=0.1 if moved else 0.5, contracted=moved, oracle_l1_gap=1 / 3
    )


FAMILIES_HEADER = b"family,alpha,beta,n,eps,d_before,d_after,contracted,oracle_l1_gap\r\n"


@pytest.mark.parametrize(
    "args,row",
    [
        (["--family", "epsmix", "--alpha", "1", "--n", "2", "--eps", "0.25"],
         b"epsmix,1.0,,2,0.25,0.5,0.10000000000000001,true,0.33333333333333331\r\n"),
        (["--family", "exponential", "--alpha", "2"],
         b"exponential,2.0,,,,0.5,0.5,false,0.33333333333333331\r\n"),
    ],
)
def test_families_csv_bytes(tmp_path, monkeypatch, args, row):
    monkeypatch.setattr(cli, "contraction_check", _fixed_contraction)
    assert cli.main(["families", *args, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "families.csv").read_bytes() == FAMILIES_HEADER + row


def test_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "contraction_check", _fixed_contraction)
    args = ["--family", "epsmix", "--alpha", "1", "--n", "2", "--eps", "0.25"]
    assert cli.main(["families", *args, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "manifest.json").read_bytes() == (
        b'{\n  "options": {\n    "alpha": 1.0,\n    "beta": 3.0,\n    "eps": 0.25,\n'
        b'    "family": "epsmix",\n    "method": "fft",\n    "n": 2,\n    "n_points": 32769\n'
        b'  },\n  "subcommand": "families",\n  "version": "' + VERSION + b'"\n}\n'
    )


def test_verify_report_bytes(tmp_path, monkeypatch):
    checks = [
        PropertyCheck("norm_squaring", 1e-17, 1e-12, "<=", True),
        PropertyCheck("lipschitz", 2.5, 2.0, "<=", False, "worst pair 3"),
    ]
    monkeypatch.setattr(cli, "run_property_suite", lambda settings: checks)
    assert cli.main(["verify", "--n-points", "64", "--out", str(tmp_path)]) == 1
    assert (tmp_path / "verify_report.json").read_bytes() == (
        b'{\n  "all_passed": false,\n  "properties": [\n'
        b'    {\n      "comparison": "<=",\n      "detail": "",\n      "measured": 1e-17,\n'
        b'      "name": "norm_squaring",\n      "pass": true,\n      "threshold": 1e-12\n    },\n'
        b'    {\n      "comparison": "<=",\n      "detail": "worst pair 3",\n      "measured": 2.5,\n'
        b'      "name": "lipschitz",\n      "pass": false,\n      "threshold": 2.0\n    }\n  ],\n'
        b'  "settings": {\n    "method": "fft",\n    "n_points": 64,\n    "n_random": 50,\n'
        b'    "seed": 20240901,\n    "x_max": 40.0\n  }\n}\n'
    )
