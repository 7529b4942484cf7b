import csv
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isofield import (
    PureSpatial,
    SeparableScalar,
    SeriesModel,
    TailEnvelope,
    VectorMA1,
    angular_power_spectrum,
    eval_cov,
    load_model,
    parse_space,
    recover_coefficients,
    save_model,
    truncation_bound,
)
import isofield
from isofield.cli import MAX_COUNT, MAX_VALUES, main, resolve_points
from isofield.spaces import points_sha256, points_to_reals
from tests.oracles import eval_cov_output, load_realization_values, random_psd

S2 = parse_space("sphere:2")


@pytest.fixture
def spatial_model_file(tmp_path):
    model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1), 0.25 * np.eye(1)])
    return save_model(model, tmp_path / "spatial.json"), model


@pytest.fixture
def ma1_model_file(tmp_path):
    rng = np.random.default_rng(0)
    model = SeriesModel(
        S2, 2, [random_psd(rng, 2), random_psd(rng, 2)], VectorMA1(0.4 * np.eye(2))
    )
    return save_model(model, tmp_path / "ma1.json"), model


@pytest.fixture
def exponential_model_file(tmp_path):
    model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)],
                        SeparableScalar("exponential", 1.0))
    return save_model(model, tmp_path / "exp.json"), model


EXPONENTIAL_DOC = json.dumps({"space": "sphere:2", "m": 1, "coeffs": [[[1.0]]],
                              "temporal": {"variant": "exponential", "theta": 1.0}})


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestValidate:
    def test_valid_ma1_exits_zero(self, ma1_model_file, tmp_path, capsys):
        path, _ = ma1_model_file
        out = tmp_path / "report.json"
        assert main(["validate", "--model", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["valid"] is True

    def test_asymmetric_coefficient_exits_one(self, tmp_path):
        doc = {
            "space": "sphere:2",
            "m": 2,
            "coeffs": [
                [[1.0, 0.0], [0.0, 1.0]],
                [[1.0, 0.5], [0.0, 1.0]],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["validate", "--model", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert any(v["degree"] == 1 for v in report["violations"])

    def test_malformed_matrix_exits_two(self, tmp_path):
        doc = {"space": "sphere:2", "m": 2, "coeffs": [[[1.0, 0.0], [0.0]]]}
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path)]) == 2

    def test_unreadable_json_exits_two(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{")
        assert main(["validate", "--model", str(path)]) == 2
        assert main(["validate", "--model", str(tmp_path / "missing.json")]) == 2

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["validate", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_spatial_model_takes_lag_zero_only(self, spatial_model_file, tmp_path, capsys):
        # the message and exit code of eval-cov on the same lags
        path, _ = spatial_model_file
        for argv in (["validate"], ["eval-cov"]):
            assert main(argv + ["--model", str(path), "--lags", "5,7", "--out", "-"]) == 2
            assert capsys.readouterr().err == (
                "error: a purely spatial model is evaluated at lag 0 only\n")
        for lags in ([], ["--lags", "0"], ["--lags=-0.0,0"]):
            assert main(["validate", "--model", str(path), "--out", "-"] + lags) == 0
            assert json.loads(capsys.readouterr().out) == {"valid": True, "violations": []}

    def test_lag_grid_over_the_table_cap_exits_two(self, exponential_model_file, tmp_path,
                                                   capsys):
        # (N+1) m^2 = 2: 543 lags may need 543*542+1 differences of 2 + 32 values,
        # just over MAX_LAG_TABLE; 542 lags stay under it
        path, _ = exponential_model_file
        out = tmp_path / "report.json"
        lags = ",".join(str(0.01 * k) for k in range(543))
        assert main(["validate", "--model", str(path), "--lags", lags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a probe grid of 543 distinct lags")
        assert not out.exists()


class TestEvalCov:
    def test_constant_model_constant_column(self, tmp_path):
        model = SeriesModel(S2, 1, [np.eye(1)])
        path = save_model(model, tmp_path / "b0.json")
        out = tmp_path / "table.csv"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", "0:3.14:7",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            values = {float(r["value"]) for r in csv.DictReader(fh)}
        assert values == {1.0}

    def test_grid_reproduces_library_eval(self, spatial_model_file, tmp_path):
        path, model = spatial_model_file
        out = tmp_path / "table.csv"
        assert main(["eval-cov", "--model", str(path),
                     "--rho-grid", f"0:{math.pi}:100", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        for row in rows:
            want = eval_cov(model, float(row["rho"]))[0, 0]
            assert float(row["value"]) == want

    def test_ma1_lag_outside_support_is_zero(self, ma1_model_file, tmp_path):
        path, _ = ma1_model_file
        out = tmp_path / "table.csv"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", "0:3:5",
                     "--lags", "2,3", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert all(float(r["value"]) == 0.0 for r in csv.DictReader(fh))

    def test_negative_lags_accepted(self, ma1_model_file, tmp_path):
        path, model = ma1_model_file
        out = tmp_path / "table.csv"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", "0:3:4",
                     "--lags", "-1,0,1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {float(r["lag"]) for r in rows} == {-1.0, 0.0, 1.0}
        for r in rows:
            want = eval_cov(model, float(r["rho"]), float(r["lag"]))
            assert float(r["value"]) == want[int(r["component_i"]), int(r["component_j"])]


EVAL_COV_CASES = {
    # every grid runs from 0 to pi; m = 1
    "m1": (SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1), 0.25 * np.eye(1)]),
           f"0:{math.pi}:5", "0", None),
    # m = 3 with a tail bound, -0.0 and negative real lags, truncated to degree 0
    "m3_trunc0": (SeriesModel(
        parse_space("projC:4"), 3, [random_psd(np.random.default_rng(n), 3) for n in range(4)],
        SeparableScalar("exponential", 0.7), tail=TailEnvelope(0.9, 0.4)),
        f"0:{math.pi}:4", "-0.0,-1.5,0.25,2", 0),
    "ma1": (SeriesModel(S2, 2, [random_psd(np.random.default_rng(9), 2)] * 2,
                        VectorMA1([[0.3, -0.2], [0.1, 0.5]])),
            f"0:{math.pi}:3", "-1,0,1,2", None),
}


class TestEvalCovBytes:
    """eval-cov writes the bytes of one dict row per matrix entry rendered by csv.writer
    or json.dumps (tests/oracles.py::eval_cov_output)."""

    @pytest.mark.parametrize("case", sorted(EVAL_COV_CASES))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_equal_the_row_rendering(self, case, fmt, tmp_path, capsys):
        model, grid, lag_text, trunc = EVAL_COV_CASES[case]
        path = save_model(model, tmp_path / "model.json")
        rhos = np.linspace(*(float(v) for v in grid.split(":")[:2]), int(grid.split(":")[2]))
        lags = [float(v) for v in lag_text.split(",")]
        n = model.max_degree if trunc is None else trunc
        covs = [eval_cov(model, rhos, lag, n) for lag in lags]
        want = eval_cov_output(rhos, lags, covs, truncation_bound(model, n), fmt)
        argv = ["eval-cov", "--model", str(path), "--rho-grid", grid, f"--lags={lag_text}",
                "--format", fmt] + ([] if trunc is None else ["--trunc", str(trunc)])
        out = tmp_path / "table"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out == want
        if fmt == "csv":
            assert want.count("\r\n") == 1 + len(rhos) * len(lags) * model.m**2
            assert ",-0.0," in want or "-0.0" not in lag_text
            assert "\r\n0.0," in want and f"\r\n{math.pi!r}," in want

    def test_no_lags_writes_the_header_only(self, spatial_model_file, tmp_path):
        path, _ = spatial_model_file
        out = tmp_path / "table.csv"
        assert main(["eval-cov", "--model", str(path), "--lags=,", "--out", str(out)]) == 0
        assert out.read_bytes() == b"rho,lag,component_i,component_j,value,tail_bound\r\n"


class TestSimulate:
    def test_byte_identical_reruns(self, spatial_model_file, tmp_path):
        path, _ = spatial_model_file
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--model", str(path), "--points", "random:20", "--seed", "99"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert sha256(out1) == sha256(out2)
        meta1 = json.loads((tmp_path / "a.meta.json").read_text())
        meta2 = json.loads((tmp_path / "b.meta.json").read_text())
        assert meta1 == meta2
        assert meta1["seed"] == 99 and "latent_u" in meta1

    def test_fibonacci_row_count(self, spatial_model_file, tmp_path):
        path, _ = spatial_model_file
        out = tmp_path / "fib.csv"
        assert main(["simulate", "--model", str(path), "--points", "fibonacci:500",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 500 points x 1 time x 1 component
        assert len(rows) == 500
        values = load_realization_values(out)
        assert values.shape == (500, 1, 1)
        assert np.all(np.isfinite(values))

    def test_octonionic_simulation_exits_three(self, tmp_path):
        model = SeriesModel(parse_space("projO:16"), 1, [np.eye(1)])
        path = save_model(model, tmp_path / "oct.json")
        assert main(["simulate", "--model", str(path), "--points", "random:5",
                     "--out", str(tmp_path / "oct.csv")]) == 3

    def test_fibonacci_rejected_off_sphere(self, tmp_path):
        model = SeriesModel(parse_space("projC:4"), 1, [np.eye(1)])
        path = save_model(model, tmp_path / "c.json")
        assert main(["simulate", "--model", str(path), "--points", "fibonacci:10",
                     "--out", str(tmp_path / "c.csv")]) == 2

    def test_temporal_needs_times(self, ma1_model_file, tmp_path):
        path, model = ma1_model_file
        out = tmp_path / "t.csv"
        assert main(["simulate", "--model", str(path), "--points", "random:3",
                     "--times", "0,1,2", "--out", str(out)]) == 0
        values = load_realization_values(out)
        assert values.shape == (3, 3, 2)
        # non-integer times on an integer-domain kernel is a usage error
        assert main(["simulate", "--model", str(path), "--points", "random:3",
                     "--times", "0,0.5", "--out", str(out)]) == 2

    def test_points_from_file(self, spatial_model_file, tmp_path):
        path, _ = spatial_model_file
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0,0\n0,1,0\n0,0,1\n")
        out = tmp_path / "filepts.csv"
        assert main(["simulate", "--model", str(path), "--points", str(pts),
                     "--out", str(out)]) == 0
        assert load_realization_values(out).shape == (3, 1, 1)


class TestCheck:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "check.json"
        code = main(["check", "--replicates", "4000", "--spaces", "sphere:2,projC:4",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        names = {r["name"] for r in doc["checks"]}
        assert "volume_ratio" in names and any(n.startswith("funk_hecke") for n in names)
        assert all(r.get("identity") for r in doc["checks"])

    def test_fault_injection_fails_and_names_identity(self, tmp_path, capsys, monkeypatch):
        a_constant = isofield.spaces.a_constant
        monkeypatch.setattr("isofield.verify.a_constant",
                            lambda space, n: 1.01 * a_constant(space, n))
        out = tmp_path / "check.json"
        code = main(["check", "--replicates", "2000", "--spaces", "sphere:2",
                     "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        failed = [r["name"] for r in doc["checks"] if not r["pass"]]
        assert "eigenspace_dimension" in failed
        assert "eigenspace_dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1", "0", "-5", str(MAX_COUNT + 1), "100000000000"])
    def test_replicates_outside_the_range_exit_two(self, tmp_path, capsys, count):
        out = tmp_path / "check.json"
        assert main(["check", "--replicates", count, "--spaces", "sphere:2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --replicates {count} ") and str(MAX_COUNT) in err
        assert not out.exists()


class TestSpectrum:
    def test_rows_match_library(self, spatial_model_file, tmp_path):
        path, model = spatial_model_file
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--model", str(path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[0]["value"]) == 1.0  # B_0 / dim H_0
        assert float(rows[1]["value"]) == pytest.approx(0.5 / 3.0)

    @pytest.mark.parametrize("kernel", ["ma1", "pure_spatial"])
    def test_temporal_model_rows_match_library(self, ma1_model_file, tmp_path, kernel):
        # every kernel has a spectrum: the CLI writes the library's B_n(0) / dim H_n
        path, model = ma1_model_file
        if kernel == "pure_spatial":
            model = SeriesModel(S2, 2, model.coeffs, PureSpatial())
            path = save_model(model, tmp_path / "pure_spatial.json")
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--model", str(path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (model.max_degree + 1) * model.m**2
        for r in rows:
            want = angular_power_spectrum(load_model(path), int(r["degree"]))
            assert float(r["value"]) == want[int(r["component_i"]), int(r["component_j"])]


class TestParser:
    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_bad_grid_exits_two(self, spatial_model_file):
        path, _ = spatial_model_file
        assert main(["eval-cov", "--model", str(path), "--rho-grid", "nope"]) == 2


class TestBoundaries:
    def test_spatial_model_simulates_at_time_zero_only(self, spatial_model_file, tmp_path):
        path, _ = spatial_model_file
        assert main(["simulate", "--model", str(path), "--points", "random:3",
                     "--times", "0,1", "--out", str(tmp_path / "s.csv")]) == 2

    def test_negative_lists_starting_with_a_point(self, exponential_model_file, tmp_path):
        # "-.5,0,.5" once reached argparse as an option string: exit 2, expected one argument
        path, _ = exponential_model_file
        assert main(["validate", "--model", str(path), "--lags", "-.5,0,.5",
                     "--out", str(tmp_path / "v.json")]) == 0
        out = tmp_path / "s.csv"
        assert main(["simulate", "--model", str(path), "--points", "random:2",
                     "--times", "-.5,0", "--out", str(out)]) == 0
        assert sorted(set(np.genfromtxt(out, delimiter=",", names=True)["time"])) == [-0.5, 0.0]

    def test_duplicate_times_on_exponential_kernel_exit_two(
        self, exponential_model_file, tmp_path, capsys
    ):
        path, _ = exponential_model_file
        assert main(["simulate", "--model", str(path), "--points", "random:3",
                     "--times", "0,1,1", "--out", str(tmp_path / "e.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kernel", ["ar1", "ma1", "pure_spatial"])
    def test_duplicate_times_exit_two(self, kernel, tmp_path, capsys):
        temporal = {"ar1": SeparableScalar("ar1", 0.5), "ma1": VectorMA1(0.4 * np.eye(1)),
                    "pure_spatial": PureSpatial()}[kernel]
        model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)], temporal)
        path = save_model(model, tmp_path / f"{kernel}.json")
        out = tmp_path / "d.csv"
        assert main(["simulate", "--model", str(path), "--points", "random:3",
                     "--times", "0,1,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("temporal", [{"variant": "exponential", "theta": math.inf},
                                          {"variant": "ma1", "phi": [[math.nan]]}],
                             ids=["exponential_inf", "ma1_nan"])
    def test_non_finite_kernel_parameter_exits_two(self, temporal, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": "sphere:2", "m": 1, "coeffs": [[[1.0]]],
                                    "temporal": temporal}))
        assert main(["eval-cov", "--model", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: bad temporal kernel")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("fields", [
        {"m": True},
        {"tail": {"c": True, "r": 0.5}},
        {"tail": {"c": 1.0, "r": "0.5"}},
        {"temporal": {"variant": "ar1", "phi": "0.5"}},
        {"temporal": {"variant": "ar1", "phi": False}},
        {"temporal": {"variant": "exponential", "theta": "1.5"}},
    ], ids=["m_true", "tail_c_true", "tail_r_string", "ar1_phi_string", "ar1_phi_false",
            "exponential_theta_string"])
    def test_non_number_scalar_fields_exit_two(self, fields, tmp_path, capsys):
        # bool is an int subclass and float() parses strings: both were accepted
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": "sphere:2", "m": 1, "coeffs": [[[1.0]]], **fields}))
        out = tmp_path / "report.json"
        assert main(["validate", "--model", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "0,-inf", "1,NaN"])
    def test_non_finite_lags_and_times_exit_two(self, exponential_model_file, tmp_path, bad):
        path, _ = exponential_model_file
        out = str(tmp_path / "out")
        assert main(["eval-cov", "--model", str(path), "--lags", bad, "--out", out]) == 2
        assert main(["validate", "--model", str(path), "--lags", bad, "--out", out]) == 2
        assert main(["simulate", "--model", str(path), "--points", "random:2",
                     "--times", bad, "--out", out + ".csv"]) == 2

    @pytest.mark.parametrize("grid", ["0:10:3", "-0.5:1:3", "0:nan:3", "4:3:2"])
    def test_rho_grid_outside_zero_pi_exits_two(self, spatial_model_file, grid):
        path, _ = spatial_model_file
        assert main(["eval-cov", "--model", str(path), "--rho-grid", grid]) == 2

    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "1"],
        ["validate", "--threads", "1"],
        ["eval-cov", "--seed", "1"],
        ["eval-cov", "--threads", "1"],
        ["simulate", "--points", "random:2", "--format", "json"],
        ["simulate", "--points", "random:2", "--threads", "1"],
        ["spectrum", "--seed", "1"],
        ["spectrum", "--threads", "1"],
    ])
    def test_unread_flags_rejected(self, spatial_model_file, tmp_path, argv):
        path, _ = spatial_model_file
        cmd = argv[:1] + ["--model", str(path), "--out", str(tmp_path / "x.csv")] + argv[1:]
        assert main(cmd) == 2

    def test_check_rejects_format(self):
        assert main(["check", "--format", "json"]) == 2

    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_negative_seed_is_named(self, spatial_model_file, tmp_path, capsys, seed):
        path, _ = spatial_model_file
        out = tmp_path / "run.csv"
        for argv in (["simulate", "--model", str(path), "--points", "random:2"],
                     ["check", "--spaces", "sphere:2", "--replicates", "10"]):
            assert main(argv + ["--seed", seed, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: --seed {seed} ")
            assert not out.exists()

    @pytest.mark.parametrize("spec", ["random:0", "random:-3", "fibonacci:0", "fibonacci:-2"])
    def test_empty_point_sets_exit_two(self, spatial_model_file, tmp_path, capsys, spec):
        path, _ = spatial_model_file
        out = tmp_path / "empty.csv"
        assert main(["simulate", "--model", str(path), "--points", spec, "--out", str(out)]) == 2
        assert spec in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["random:abc", "fibonacci:1.5", "random:"])
    def test_bad_point_count_names_the_spec(self, spatial_model_file, tmp_path, capsys, spec):
        path, _ = spatial_model_file
        out = tmp_path / "bad.csv"
        assert main(["simulate", "--model", str(path), "--points", spec, "--out", str(out)]) == 2
        assert f"point set {spec!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [MAX_COUNT + 1, 99999999999])
    def test_counts_above_the_cap_exit_two(self, spatial_model_file, tmp_path, capsys, count):
        path, _ = spatial_model_file
        out = tmp_path / "big.csv"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", f"0:1:{count}",
                     "--out", str(out)]) == 2
        assert str(MAX_COUNT) in capsys.readouterr().err
        for spec in (f"random:{count}", f"fibonacci:{count}"):
            assert main(["simulate", "--model", str(path), "--points", spec,
                         "--out", str(out)]) == 2
            assert str(MAX_COUNT) in capsys.readouterr().err
        assert not out.exists()

    def test_coefficients_near_overflow(self, tmp_path):
        # finite and PSD, but 0.5 * (B + B^T) overflows to inf
        path = save_model(SeriesModel(S2, 2, [np.diag([1e308, 1e308])]), tmp_path / "big.json")
        out = tmp_path / "big.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--model", str(path), "--out", str(tmp_path / "v.json")]) == 0
            assert main(["simulate", "--model", str(path), "--points", "random:3",
                         "--out", str(out)]) == 0
        values = load_realization_values(out)
        assert values.shape == (3, 1, 2) and np.all(np.isfinite(values))

    @pytest.mark.parametrize("trunc", [[], ["--trunc", "0"]])
    def test_eval_cov_on_non_finite_model_exits_one(self, tmp_path, capsys, trunc):
        model = SeriesModel(S2, 1, [np.eye(1), np.array([[np.nan]])])
        path = save_model(model, tmp_path / "nan.json")
        out = tmp_path / "cov.csv"
        for argv in (["eval-cov"] + trunc, ["spectrum"]):
            assert main(argv + ["--model", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("invalid model:") and "degree 1" in err
            assert not out.exists()

    def test_point_file_rows_are_sidecar_rows(self, tmp_path):
        space = parse_space("projC:4")
        path = save_model(SeriesModel(space, 1, [np.eye(1), 0.5 * np.eye(1)]),
                          tmp_path / "c.json")
        rows = np.random.default_rng(3).standard_normal((4, 6))
        lines = ["# re,im pairs"] + [",".join(map(repr, r)) for r in rows.tolist()]
        lines.insert(3, "  # indented comment")
        pts = tmp_path / "pts.csv"
        pts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c_out.csv"
        assert main(["simulate", "--model", str(path), "--points", str(pts),
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "c_out.meta.json").read_text())
        want = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        got = resolve_points(space, str(pts), 0)
        assert np.allclose(points_to_reals(got), want, rtol=0, atol=1e-15)
        assert meta["points_sha256"] == points_sha256(got)
        pts.write_text("1,0,0,0,0\n")  # five reals cannot be three complex coordinates
        assert main(["simulate", "--model", str(path), "--points", str(pts),
                     "--out", str(out)]) == 2

    def test_sidecar_points_match_their_spec(self, tmp_path):
        space = parse_space("projC:4")
        path = save_model(SeriesModel(space, 1, [np.eye(1), 0.5 * np.eye(1)]),
                          tmp_path / "c.json")
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0,0,0,0,0\n0,0,0.6,0.8,0,0\n")
        for spec, want_spec in (("random:7", "random:7"),
                                (str(pts), {"file": "pts.csv", "sha256": sha256(pts)})):
            out = tmp_path / "v.csv"
            assert main(["simulate", "--model", str(path), "--points", spec, "--seed", "5",
                         "--out", str(out)]) == 0
            meta = json.loads((tmp_path / "v.meta.json").read_text())
            points = resolve_points(space, spec, 5)
            assert meta["format_version"] == 2 and "points" not in meta
            assert meta["points_spec"] == want_spec
            assert meta["point_count"] == len(points)
            assert meta["points_sha256"] == points_sha256(points)

    def test_fibonacci_sidecar_v2(self, spatial_model_file, tmp_path):
        path, model = spatial_model_file
        out = tmp_path / "f.csv"
        assert main(["simulate", "--model", str(path), "--points", "fibonacci:50",
                     "--trunc", "1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "f.meta.json").read_text())
        assert meta["points_spec"] == "fibonacci:50" and meta["point_count"] == 50
        assert meta["points_sha256"] == points_sha256(resolve_points(S2, "fibonacci:50", 0))
        assert meta["isofield_version"] == isofield.__version__
        assert meta["tail_bound"] == isofield.truncation_bound(model, 1) > 0.0
        assert (tmp_path / "f.meta.json").read_text().count("\n") == 1


def _run_cli(argv, address_space=None):
    """(exit code, stderr) of the CLI in a fresh interpreter, which prints
    warnings to stderr as a user would see them; address_space, if given,
    caps the interpreter's virtual memory in bytes."""
    src = str(Path(isofield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    done = subprocess.run([sys.executable, "-m", "isofield.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)
    return done.returncode, done.stderr


def test_overflowing_point_file_exits_two_without_warnings(spatial_model_file, tmp_path):
    path, _ = spatial_model_file
    pts = tmp_path / "huge.csv"
    pts.write_text("1e308,1e308,0\n")
    out = tmp_path / "h.csv"
    code, err = _run_cli(["simulate", "--model", str(path), "--points", str(pts),
                          "--out", str(out)])
    assert code == 2 and "Warning" not in err
    assert err == "error: point representative 0 must be nonzero and finite\n"
    assert not out.exists()


def test_overflowing_asymmetry_is_reported_without_warnings(tmp_path):
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps({"space": "sphere:2", "m": 2,
                                "coeffs": [[[1.0, 1.5e308], [-1.5e308, 1.0]]],
                                "temporal": {"variant": "exponential", "theta": 1.0}}))
    out = tmp_path / "report.csv"
    code, err = _run_cli(["validate", "--model", str(path), "--format", "csv",
                          "--out", str(out)])
    assert code == 1 and "Warning" not in err
    rows = out.read_text().splitlines()
    assert rows[0] == "degree,lag,kind,magnitude" and len(rows) == 6
    assert rows[3] == "0,0.0,asymmetric,inf"
    assert all(",asymmetric," in row for row in rows[1:])


BOUNDARY_INPUTS = {
    # name: (model document, argv, the whole stderr), which names the field or file line at fault
    "huge_integer_coefficient": (
        '{"space": "sphere:2", "m": 1, "coeffs": [[[1%s]]]}' % ("0" * 400), ["validate"],
        "error: coefficient 0 has an integer entry too large for a float\n"),
    "space_not_a_string": (
        '{"space": 2, "m": 1, "coeffs": [[[1.0]]]}', ["validate"],
        "error: space must be a string 'family:dimension', such as 'sphere:2'\n"),
    "overflowing_lag_difference": (
        EXPONENTIAL_DOC, ["validate", "--lags", "0,1e308,-1e308"],
        "error: probe lags 1e+308 and -1e+308 differ by more than a float holds\n"),
    "ragged_point_file": (
        EXPONENTIAL_DOC, ["simulate", "--points", "RAGGED"],
        "error: point file 'RAGGED': line 4 has 2 values where the lines before it have 3\n"),
    "non_number_in_point_file": (
        EXPONENTIAL_DOC, ["simulate", "--points", "WORDS"],
        "error: point file 'WORDS': line 2 holds a non-number\n"),
}


@pytest.mark.parametrize("case", BOUNDARY_INPUTS)
def test_boundary_inputs_exit_two_naming_the_field(tmp_path, capsys, case):
    doc, argv, message = BOUNDARY_INPUTS[case]
    model = tmp_path / "model.json"
    model.write_text(doc)
    files = {"RAGGED": "# x,y,z\n1,0,0\n\n0,1\n", "WORDS": "1,0,0\n0,one,0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        message = message.replace(name, str(tmp_path / name))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out = tmp_path / "out.csv"
    assert main([*argv, "--model", str(model), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("label", ["projR:2000", "sphere:1001"])
def test_check_on_a_space_above_the_dimension_cap_exits_two(tmp_path, capsys, label):
    out = tmp_path / "checks.json"
    assert main(["check", "--spaces", label, "--replicates", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: dimension {label.split(':')[1]} of ")
    assert not out.exists()


# Each request asks for terabytes; under a 3 GB address space an uncapped run fails at once.
OVER_CAP = {
    "eval-cov": (4, ["--rho-grid", "0:1:1000000", "--lags", ",".join(["0"] * 20_000)],
                 "--rho-grid and --lags ask for 1000000 x 20000 x 16 = 320000000000"),
    "simulate": (10, ["--points", "random:1000000", "--times", ",".join(map(str, range(12_500)))],
                 "--points and --times ask for 1000000 x 12500 x 10 = 125000000000"),
}


@pytest.mark.parametrize("command", OVER_CAP)
def test_output_over_the_value_cap_exits_two(tmp_path, command):
    m, argv, request = OVER_CAP[command]
    path = save_model(SeriesModel(S2, m, [np.eye(m)], PureSpatial()), tmp_path / "model.json")
    out = tmp_path / "o.csv"
    code, err = _run_cli([command, "--model", str(path), "--out", str(out), *argv],
                         address_space=3 * 2**30)
    assert code == 2
    assert err == f"error: {request} values, over the cap of {MAX_VALUES}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--points", "random:3", "--times", "0,1"],
                                  ["eval-cov"]], ids=["simulate", "eval-cov"])
def test_ma1_lag_zero_overflow_is_invalid(tmp_path, argv):
    # Sigma_0 = 1e308 is finite, but B_0(0) = Sigma_0 + Phi Sigma_0 Phi^T overflows
    path = save_model(SeriesModel(S2, 1, [np.array([[1e308]])], VectorMA1([[2.0]])),
                      tmp_path / "ma1_big.json")
    out = tmp_path / "o.csv"
    code, err = _run_cli([argv[0], "--model", str(path), "--out", str(out), *argv[1:]])
    assert code == 1
    assert err.startswith("invalid model: ") and "degree 0 lag spatial: divergent" in err
    assert "Warning" not in err
    assert not out.exists()


# (a) B_0(0) is finite, but the tail envelope's sum c r / (1 - r) overflows;
# (b) each B_n(0) = 2.44 Sigma_n is finite, but sum ||B_n(0)|| P_n(1) overflows.
DIVERGENT_SUMS = {
    "tail": (SeriesModel(S2, 1, [[[1.0]]], tail=TailEnvelope(1e308, 0.999999)), 0),
    "ma1": (SeriesModel(S2, 2, [4e307 * np.eye(2)] * 2, VectorMA1(1.2 * np.eye(2))), 1),
}


@pytest.mark.parametrize("name, command", [("tail", "eval-cov"), ("tail", "spectrum"),
                                           ("ma1", "eval-cov")])
def test_divergent_series_is_invalid(tmp_path, name, command):
    model, degree = DIVERGENT_SUMS[name]
    path = save_model(model, tmp_path / "divergent.json")
    out = tmp_path / "o.csv"
    code, err = _run_cli([command, "--model", str(path), "--out", str(out)])
    assert code == 1
    assert err.startswith("invalid model: ") and f"degree {degree} lag spatial: divergent" in err
    assert "Warning" not in err
    assert not out.exists()


def test_unit_circle_ar1_model(tmp_path):
    # sphere:1 has alpha = beta = -1/2, so a + b = -1
    space = parse_space("sphere:1")
    model = SeriesModel(space, 2, [np.eye(2), [[0.5, 0.1], [0.1, 0.3]], 0.25 * np.eye(2)],
                        SeparableScalar("ar1", 0.6))
    path = save_model(model, tmp_path / "circle.json")
    out = tmp_path / "circle.csv"
    assert main(["simulate", "--model", str(path), "--points", "random:7", "--times", "0,1,2",
                 "--out", str(out)]) == 0
    values = load_realization_values(out)
    assert values.shape == (7, 3, 2) and np.all(np.isfinite(values))
    assert json.loads((tmp_path / "circle.meta.json").read_text())["space"] == "sphere:1"
    table = tmp_path / "table.csv"
    assert main(["eval-cov", "--model", str(path), "--rho-grid", f"0:{math.pi}:9",
                 "--lags", "-1,0,2", "--out", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 * 3 * 4
    for r in rows:
        want = eval_cov(model, float(r["rho"]), float(r["lag"]))
        assert float(r["value"]) == want[int(r["component_i"]), int(r["component_j"])]
    got = recover_coefficients(lambda rho: eval_cov(model, rho), space, 2, N=2, order=3)
    for a, b in zip(got.coeffs, model.coeffs):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_import_does_not_load_scipy():
    src = str(Path(isofield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, isofield, isofield.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"
