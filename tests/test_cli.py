import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from isofield.simulate import _WRITE_CHUNK
from isofield.spaces import points_sha256, points_to_reals
from tests.oracles import csv_table, eval_cov_output, load_realization_values, random_psd

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
                "error: lag 5.0 is not 0, and a purely spatial model is evaluated at lag 0 only\n")
        for lags in ([], ["--lags", "0"], ["--lags=-0.0,0"]):
            assert main(["validate", "--model", str(path), "--out", "-"] + lags) == 0
            assert json.loads(capsys.readouterr().out) == {"valid": True, "violations": []}

    def test_empty_lag_list_exits_two_on_every_domain(self, spatial_model_file,
                                                      exponential_model_file, capsys):
        # a spatial model went on to validate_spatial and printed a valid report
        for path, _ in (spatial_model_file, exponential_model_file):
            assert main(["validate", "--model", str(path), "--lags=,", "--out", "-"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: probe_lags must be nonempty\n")

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
    # every grid but one_row's runs from 0 to pi; m = 1
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
    # a one-row table: one distance, one lag, m = 1
    "one_row": (SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)],
                            SeparableScalar("exponential", 1.0)), "1.25:3:1", "0.5", None),
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
            assert all(f"\r\n{rho!r}," in want for rho in (float(rhos[0]), float(rhos[-1])))

    @pytest.mark.parametrize("fmt, lag_count", [("csv", 3), ("json", 3),
                                                ("csv", _WRITE_CHUNK // 4 + 1),
                                                ("json", _WRITE_CHUNK // 4 + 1)])
    def test_table_over_several_chunks_equals_the_row_rendering(self, fmt, lag_count, tmp_path):
        # m = 2: with 3 lags, two full chunks of whole distances and one of a single
        # distance; with _WRITE_CHUNK // 4 + 1 lags, distances of more than a chunk each
        rng = np.random.default_rng(11)
        model = SeriesModel(parse_space("projC:4"), 2, [random_psd(rng, 2) for _ in range(3)],
                            SeparableScalar("exponential", 0.7))
        path = save_model(model, tmp_path / "model.json")
        count = max(3, 2 * (_WRITE_CHUNK // (4 * lag_count)) + 1)
        rhos = np.linspace(0.0, 3.0, count)
        lags = [0.25 * k - 0.5 for k in range(lag_count)]
        assert len(rhos) * len(lags) * 4 > 2 * _WRITE_CHUNK
        want = eval_cov_output(rhos, lags, list(eval_cov(model, rhos, lags)),
                               truncation_bound(model, model.max_degree), fmt)
        out = tmp_path / "table"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", f"0:3:{count}",
                     f"--lags={','.join(map(repr, lags))}", "--format", fmt,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("m", [1, 3])
    def test_json_over_three_chunks_with_extreme_lags_and_values(self, m, tmp_path):
        # two full chunks of whole distances and one of a single distance; negative, tiny and
        # huge lags; entries from 1e-320 to 1e300 through coefficients scaled D B D
        rng = np.random.default_rng(12 + m)
        scale = np.diag([1e-160, 1e150, 1.0][:m])
        model = SeriesModel(parse_space("projC:4"), m,
                            [scale @ random_psd(rng, m, 0.5**n) @ scale for n in range(3)],
                            SeparableScalar("exponential", 0.7))
        path = save_model(model, tmp_path / "model.json")
        lags = [-7.5, -5e-324, 0.0, 1e-300, 1e300, 2.5]
        count = 2 * (_WRITE_CHUNK // (len(lags) * m * m)) + 1
        rhos = np.linspace(0.0, 3.0, count)
        want = eval_cov_output(rhos, lags, list(eval_cov(model, rhos, lags)),
                               truncation_bound(model, model.max_degree), "json")
        assert "e-3" in want and "e+" in want and '"lag": -5e-324' in want
        out = tmp_path / "table.json"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", f"0:3:{count}",
                     f"--lags={','.join(map(repr, lags))}", "--format", "json",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("trunc", [0, 2])
    def test_non_finite_table_or_tail_bound_exits_two(self, trunc, fmt, tmp_path, capsys):
        # the symmetric parts of these huge antisymmetric coefficients are zero, so the lag-0
        # analysis finds no divergence, but truncated at degree 0 the tail bound overflows,
        # and at degree 2 the values near rho = 0 do (in the first of three chunks only);
        # both once went out as inf or Infinity, after numpy's overflow warning
        anti = [[0.0, 1e308], [-1e308, 0.0]]
        path = save_model(SeriesModel(S2, 2, [np.eye(2), anti, anti]), tmp_path / "model.json")
        count = 2 * (_WRITE_CHUNK // 4) + 1
        out = tmp_path / "table"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval-cov", "--model", str(path), "--rho-grid", f"0:3:{count}",
                         "--trunc", str(trunc), "--format", fmt, "--out", str(out)]) == 2
        want = ("the tail bound past degree 0 is not finite" if trunc == 0
                else "the covariance series is not finite at distance 0.0 and lag 0.0")
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    def test_csv_memory_does_not_grow_with_the_table(self, exponential_model_file, tmp_path):
        # rows are formatted _WRITE_CHUNK values at a time: the traced peak grows by the
        # float64 table, its distances and eval_cov's blocks (about 17 B a value here),
        # where per-distance templates held about 65 B a value
        path, _ = exponential_model_file
        peaks = []
        for count in (5_000, 30_000):
            tracemalloc.start()
            try:
                assert main(["eval-cov", "--model", str(path), "--rho-grid", f"0:3:{count}",
                             "--lags", "0,1,2,3", "--out", str(tmp_path / "table.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 24 * 4 * 25_000  # three float64s per added value

    def test_no_lags_exits_two_naming_the_flag(self, spatial_model_file, tmp_path, capsys):
        # an empty list once wrote the header alone and exited 0, where validate --lags ""
        # and simulate --times "" exit 2
        path, _ = spatial_model_file
        out = tmp_path / "table.csv"
        for lag_text in ("", ",", " , "):
            assert main(["eval-cov", "--model", str(path), f"--lags={lag_text}",
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --lags needs at least one lag, got {lag_text!r}\n"
            assert not out.exists()

    def test_one_jacobi_table_for_every_lag(self, exponential_model_file, tmp_path,
                                           monkeypatch):
        path, model = exponential_model_file
        lags = ",".join(repr(0.25 * k) for k in range(-4, 5))
        want = [eval_cov(model, np.linspace(0.0, 3.0, 60), float(t)) for t in lags.split(",")]
        calls = []
        table = isofield.jacobi._jacobi_table
        monkeypatch.setattr(isofield.jacobi, "_jacobi_table",
                            lambda *args: calls.append(args[0]) or table(*args))
        out = tmp_path / "table.csv"
        assert main(["eval-cov", "--model", str(path), "--rho-grid", "0:3:60",
                     f"--lags={lags}", "--out", str(out)]) == 0
        assert calls == [model.max_degree]
        rows = list(csv.DictReader(out.open(newline="")))
        got = np.array([float(r["value"]) for r in rows]).reshape(60, 9).T
        assert np.array_equal(got, np.array(want)[..., 0, 0])


TEMPORAL_DOCS = {
    "spatial": None,
    "pure_spatial": {"variant": "pure_spatial"},
    "exponential": {"variant": "exponential", "theta": 1.5},
    "ar1": {"variant": "ar1", "phi": -0.6},
    "ma1": {"variant": "ma1", "phi": [[0.3, -0.2], [0.1, 0.5]]},
}
PROBE_LAGS = {"spatial": "0", "pure_spatial": "0", "exponential": "-2.5,-0.0,0,0.25,1e-300,3",
              "ar1": "-2,-1,0,1,2", "ma1": "-2,-1,0,1,3"}
# asymmetric at degree 0, indefinite at degree 1, and an asymmetry that overflows to inf
BAD_COEFFS = [[[1.0, 0.3], [0.0, 1.0]], [[1.0, 0.0], [0.0, -0.2]], [[0.5, 0.1], [0.1, 0.4]],
              [[1.0, 1.5e308], [-1.5e308, 1.0]]]


class LagDependentKernel:
    """A user kernel whose report names numeric lags: B(1) = 0.5 B but B(-1) = 0.25 B
    (asymmetric), and B(t) = 1e308 B at |t| >= 2 (divergent, magnitude inf)."""

    domain = "integers"

    def coeff_at(self, n, t, coeffs):
        if t == 0.0:
            return coeffs[n]
        if abs(t) == 1.0:
            return (0.5 if t > 0 else 0.25) * coeffs[n]
        with np.errstate(over="ignore"):
            return 1e308 * coeffs[n]


class TestTableBytes:
    """validate --format csv and spectrum write the bytes csv.writer gives for their dict
    rows (tests/oracles.py::csv_table)."""

    @staticmethod
    def _model_file(tmp_path, kernel, valid):
        rng = np.random.default_rng(21)
        doc = {"space": "sphere:2", "m": 2,
               "coeffs": [random_psd(rng, 2, 0.7**n).tolist() for n in range(4)]}
        if not valid:
            doc["coeffs"] = BAD_COEFFS
        if TEMPORAL_DOCS[kernel]:
            doc["temporal"] = TEMPORAL_DOCS[kernel]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("kernel", sorted(TEMPORAL_DOCS))
    def test_validate_csv(self, kernel, valid, tmp_path, capsys):
        path = self._model_file(tmp_path, kernel, valid)
        model = load_model(path)
        for lag_text in (None, PROBE_LAGS[kernel]):
            lags = None if lag_text is None else [float(t) for t in lag_text.split(",")]
            report = model.validate(lags)
            want = csv_table(["degree", "lag", "kind", "magnitude"],
                             [v.as_dict() for v in report.violations])
            argv = ["validate", "--model", str(path), "--format", "csv", "--out", "-"]
            assert main(argv + ([] if lag_text is None else [f"--lags={lag_text}"])) == (
                0 if valid else 1)
            assert capsys.readouterr().out == want
            assert valid or ",spatial,asymmetric,inf\r\n" in want

    def test_validate_csv_on_numeric_lags(self, tmp_path, capsys, monkeypatch):
        model = SeriesModel(S2, 2, [[[2.0, 0.5], [0.5, 2.0]], np.eye(2)], LagDependentKernel())
        monkeypatch.setattr(isofield.cli, "load_model", lambda path: model)
        want = csv_table(["degree", "lag", "kind", "magnitude"],
                         [v.as_dict() for v in model.validate([-2, -1, 0, 1, 2]).violations])
        out = tmp_path / "report.csv"
        assert main(["validate", "--model", "any.json", "--format", "csv", "--lags=-2,-1,0,1,2",
                     "--out", str(out)]) == 1
        assert out.read_bytes() == want.encode()
        assert "\r\n0,-2.0,divergent,inf\r\n" in want and ",1.0,asymmetric," in want

    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("kernel", sorted(TEMPORAL_DOCS))
    def test_spectrum_csv(self, kernel, valid, tmp_path):
        path = self._model_file(tmp_path, kernel, valid)
        model = load_model(path)
        rows = [dict(degree=n, component_i=i, component_j=j, value=float(b[i, j]))
                for n in range(model.max_degree + 1) for b in [angular_power_spectrum(model, n)]
                for i in range(model.m) for j in range(model.m)]
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--model", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == csv_table(
            ["degree", "component_i", "component_j", "value"], rows).encode()


class TestSimulate:
    def test_help_names_the_default_file(self, capsys):
        assert main(["simulate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default realization.csv)" in text and "default stdout" not in text

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

    @pytest.mark.parametrize("m", [1, 3])
    def test_json_over_three_chunks_equals_the_row_rendering(self, m, tmp_path):
        # two full chunks of whole degrees and one of a single degree; entries from subnormal
        # to about 1e300 through coefficients scaled D B D
        rng = np.random.default_rng(31 + m)
        scale = np.diag([1e-150, 1e150, 1.0][:m])
        count = 2 * (_WRITE_CHUNK // m**2) + 1
        path = save_model(SeriesModel(S2, m, [scale @ random_psd(rng, m, (n + 1.0) ** -2) @ scale
                                              for n in range(count)]), tmp_path / "model.json")
        model = load_model(path)
        rows = [dict(degree=n, component_i=i, component_j=j, value=float(b[i, j]))
                for n in range(count) for b in [angular_power_spectrum(model, n)]
                for i in range(m) for j in range(m)]
        want = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert "e-3" in want and (m == 1 or "e+" in want)
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--model", str(path), "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()

    def test_json_memory_does_not_grow_with_the_table(self, tmp_path):
        # rows are formatted a chunk of degrees at a time: past loading the model, the traced
        # peak is one chunk's text and fields, where one dict per row and the whole text took
        # about 1 KB a row
        for count in (2_001, 8_001):
            path = save_model(SeriesModel(S2, 3, [(np.eye(3) + 0.05) / (n + 1) ** 2
                                                  for n in range(count)]), tmp_path / "m.json")
            argv = ["spectrum", "--model", str(path), "--format", "json",
                    "--out", str(tmp_path / "spectrum.json")]
            results, peaks = [], []
            for call in (lambda: load_model(path), lambda: main(argv)):
                tracemalloc.start()
                try:
                    results.append(call())
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert results[1] == 0
            assert peaks[1] - peaks[0] < 5_000_000, (count, peaks)


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
        # finite in its file, but B_1(0) = Sigma_1 + Phi Sigma_1 Phi^T overflows
        model = SeriesModel(S2, 1, [np.eye(1), np.array([[1e308]])], VectorMA1([[2.0]]))
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

    def test_sidecar_hashes_the_point_file_bytes_that_were_parsed(self, tmp_path, monkeypatch):
        # the file was read twice, so a rewrite during the run put the new file's hash beside
        # points drawn from the old one
        space = parse_space("projC:4")
        path = save_model(SeriesModel(space, 1, [np.eye(1), 0.5 * np.eye(1)]),
                          tmp_path / "c.json")
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0,0,0,0,0\n0,0,0.6,0.8,0,0\n")
        parsed = sha256(pts)
        simulate = isofield.cli.simulate_spatiotemporal

        def rewriting(*args, **kwargs):
            pts.write_text("0,1,0,0,0,0\n")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(isofield.cli, "simulate_spatiotemporal", rewriting)
        out = tmp_path / "v.csv"
        assert main(["simulate", "--model", str(path), "--points", str(pts),
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "v.meta.json").read_text())
        assert sha256(pts) != parsed
        assert meta["points_spec"] == {"file": "pts.csv", "sha256": parsed}
        assert meta["point_count"] == 2

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
    # 1e400 overflows a float as it is read; 1e308,1e308,0 is a finite point whose squares
    # overflow, which normalizes as 1,1,0 does
    path, _ = spatial_model_file
    pts = tmp_path / "huge.csv"
    pts.write_text("1,0,0\n1e400,0,0\n")
    out = tmp_path / "h.csv"
    argv = ["simulate", "--model", str(path), "--points", str(pts), "--out", str(out)]
    code, err = _run_cli(argv)
    assert code == 2 and "Warning" not in err
    assert err == f"error: point file {str(pts)!r}: line 2 holds a zero or non-finite point\n"
    assert not out.exists()
    pts.write_text("1e308,1e308,0\n")
    code, err = _run_cli(argv)
    assert code == 0 and "Warning" not in err
    pts.write_text("1,1,0\n")
    plain = tmp_path / "plain.csv"
    assert _run_cli([*argv[:-1], str(plain)])[0] == 0
    assert out.read_bytes() == plain.read_bytes()


def test_overflowing_asymmetry_is_reported_without_warnings(tmp_path):
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps({"space": "sphere:2", "m": 2,
                                "coeffs": [[[1.0, 1.5e308], [-1.5e308, 1.0]]],
                                "temporal": {"variant": "exponential", "theta": 1.0}}))
    out = tmp_path / "report.csv"
    code, err = _run_cli(["validate", "--model", str(path), "--format", "csv",
                          "--out", str(out)])
    assert code == 1 and "Warning" not in err
    assert out.read_text().splitlines() == ["degree,lag,kind,magnitude",
                                            "0,spatial,asymmetric,inf"]


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
    "zero_row_in_point_file": (
        EXPONENTIAL_DOC, ["simulate", "--points", "ZERO"],
        "error: point file 'ZERO': line 4 holds a zero or non-finite point\n"),
    "non_finite_row_in_point_file": (
        EXPONENTIAL_DOC, ["simulate", "--points", "NAN"],
        "error: point file 'NAN': line 2 holds a zero or non-finite point\n"),
    "simulate_to_stdout": (
        EXPONENTIAL_DOC, ["simulate", "--points", "random:3", "--out", "-"],
        "error: --out - would be stdout, but simulate writes a values CSV and a .meta.json "
        "sidecar beside it, so --out needs a file path\n"),
}


@pytest.mark.parametrize("case", BOUNDARY_INPUTS)
def test_boundary_inputs_exit_two_naming_the_field(tmp_path, capsys, monkeypatch, case):
    doc, argv, message = BOUNDARY_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "model.json"
    model.write_text(doc)
    files = {"RAGGED": "# x,y,z\n1,0,0\n\n0,1\n", "WORDS": "1,0,0\n0,one,0\n",
             "ZERO": "# x,y,z\n1,0,0\n\n0,0,0\n", "NAN": "1,0,0\n0,nan,1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        message = message.replace(name, str(tmp_path / name))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out_flag = [] if "--out" in argv else ["--out", str(tmp_path / "out.csv")]
    before = set(tmp_path.iterdir())
    assert main([*argv, "--model", str(model), *out_flag]) == 2
    assert capsys.readouterr().err == message
    assert set(tmp_path.iterdir()) == before  # nothing written, also not to '-' in the cwd


@pytest.mark.parametrize("flag", ["--model", "--points"])
def test_input_that_is_not_utf8_exits_two_naming_the_file_and_byte(tmp_path, capsys, flag):
    model = tmp_path / "model.json"
    model.write_text(EXPONENTIAL_DOC)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1,0,0\n0,1,0\n\xff\xfe0,0,1\n")
    argv = {"--model": ["validate", "--model", str(bad)],
            "--points": ["simulate", "--model", str(model), "--points", str(bad)]}[flag]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    name = str(bad) if flag == "--model" else f"point file {str(bad)!r}"
    assert capsys.readouterr().err == (
        f"error: {name}: not UTF-8 text (byte 0xff at offset 12)\n")
    assert not out.exists()


# Models that each pass the lag-table probes on some grids, but whose stored matrix is
# indefinite at lag 0, so simulate refuses them and validate must too
LAG_ZERO_INDEFINITE = {
    # Sigma_0 = diag(1, -0.1): B_0(0) = Sigma + Phi Sigma Phi^T = diag(1, 0.9)
    "ma1": ({"space": "sphere:2", "m": 2, "coeffs": [[[1.0, 0.0], [0.0, -0.1]]],
             "temporal": {"variant": "ma1", "phi": [[0.0, 0.0], [1.0, 0.0]]}}, -0.1),
    # within the block test's old tolerance of 1e-9, outside PSD_TOL = 1e-10
    "exponential": ({"space": "sphere:2", "m": 2, "coeffs": [[[1.0, 0.0], [0.0, -5e-10]]],
                     "temporal": {"variant": "exponential", "theta": 1.0}}, -5e-10),
}


@pytest.mark.parametrize("name", LAG_ZERO_INDEFINITE)
def test_lag_zero_indefinite_model_fails_validate_as_simulate(tmp_path, capsys, name):
    doc, magnitude = LAG_ZERO_INDEFINITE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    violation = {"degree": 0, "lag": "spatial", "kind": "indefinite", "magnitude": magnitude}
    for lags in ([], ["--lags", "0"], ["--lags", "0,3"]):
        assert main(["validate", "--model", str(path), *lags]) == 1
        assert json.loads(capsys.readouterr().out) == {"valid": False, "violations": [violation]}
    out = tmp_path / "run.csv"
    argv = ["simulate", "--model", str(path), "--points", "random:3", "--times", "0,1"]
    assert main([*argv, "--out", str(out)]) == 1
    assert "degree 0 lag spatial: indefinite" in capsys.readouterr().err
    assert not out.exists()
    if name == "ma1":  # the lag gate comes first: a real lag on Z is still a usage error
        assert main(["validate", "--model", str(path), "--lags", "0,0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: lag 0.5 is not an integer")


@pytest.mark.xfail(strict=True, reason="near PSD_TOL the MA(1) lag-grid Gram refuses a model "
                   "that the lag-0 analysis accepts; ROADMAP item 6 ends this")
def test_ma1_model_valid_at_lag_zero_passes_validate_as_simulate(tmp_path, capsys):
    # Sigma_0 has an eigenvalue just inside PSD_TOL, which grows past it in the lag-grid Gram
    path = tmp_path / "ma1_near.json"
    path.write_text(json.dumps({
        "space": "sphere:2", "m": 2,
        "coeffs": [[[36.88453237252838, 0.0], [0.0, -2.311356849690191e-09]]],
        "temporal": {"variant": "ma1", "phi": [[1.5, -0.4], [-0.4, 2.9]]}}))
    argv = ["simulate", "--model", str(path), "--points", "random:3", "--times", "0,1"]
    assert main([*argv, "--out", str(tmp_path / "run.csv")]) == 0
    assert main(["validate", "--model", str(path)]) == 0, capsys.readouterr().out


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


def test_latent_table_over_the_value_cap_exits_two(tmp_path, capsys):
    # 1,001 degrees x 10^4 times x m = 1 is 10,010,000 latent values: refused before the
    # model is analysed, the points drawn or a path sampled
    model = SeriesModel(S2, 1, [[[1.0 / (n + 1) ** 3]] for n in range(1001)],
                        SeparableScalar("exponential", 1.0))
    path = save_model(model, tmp_path / "deg1000.json")
    out = tmp_path / "o.csv"
    argv = ["simulate", "--model", str(path), "--points", "random:1", "--out", str(out),
            "--times", ",".join(str(0.1 * i) for i in range(10_000))]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ("error: --times and --trunc ask for 1001 x 10000 x 1 = "
                                       f"10010000 values, over the cap of {MAX_VALUES}\n")
    assert peak < 8_000_000  # the argument and the 10^4 parsed times, not the 80 MB table
    assert not out.exists()


def test_latent_table_cap_counts_the_truncation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(isofield.cli, "MAX_VALUES", 30)
    path = save_model(SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1), 0.25 * np.eye(1)],
                                  SeparableScalar("ar1", 0.5)), tmp_path / "ar1.json")
    argv = ["simulate", "--model", str(path), "--points", "random:1", "--out",
            str(tmp_path / "o.csv")]
    assert main([*argv, "--times", ",".join(map(str, range(10)))]) == 0  # 3 x 10 x 1
    capsys.readouterr()
    assert main([*argv, "--times", ",".join(map(str, range(11)))]) == 2
    assert capsys.readouterr().err.startswith("error: --times and --trunc ask for 3 x 11 x 1 ")
    assert main([*argv, "--times", ",".join(map(str, range(11))), "--trunc", "1"]) == 0
    assert main([*argv, "--times", "0", "--trunc", "3"]) == 2
    assert "truncation degree 3 exceeds stored maximum degree 2" in capsys.readouterr().err


@pytest.mark.parametrize("out", [".", "", "..", "sub", "sub/", "new/"])
def test_simulate_out_that_names_no_file_exits_two(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    before = sorted(tmp_path.rglob("*"))
    assert main(["simulate", "--model", str(path), "--points", "random:2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out!r} names a directory or no file name"), err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out", [".", "", "..", "sub", "sub/", "new/"])
@pytest.mark.parametrize("command", ["validate", "eval-cov", "spectrum"])
def test_table_out_that_names_no_file_exits_two(tmp_path, capsys, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--model", str(path), "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: --out {out!r} names a directory or no file "
                                       "name, but the command writes a file there\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["validate", "eval-cov", "spectrum", "check", "simulate"])
def test_out_in_a_missing_folder_exits_two_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command):
    # every command checks --out first: the four that write a table or report once read the
    # model and computed it, or ran the whole check suite, before they refused
    monkeypatch.chdir(tmp_path)
    save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")

    def refuse(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    monkeypatch.setattr(isofield.cli, "load_model", refuse)
    monkeypatch.setattr(isofield.cli, "check_space_identities", refuse)
    argv = [command] if command == "check" else [command, "--model", "spatial.json"]
    if command == "simulate":
        argv += ["--points", "random:2"]
    assert main([*argv, "--out", "nodir/x"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --out 'nodir/x' is in 'nodir', which does not exist, but ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spatial.json"]


def test_simulate_sidecar_that_is_a_directory_exits_two_before_any_work(tmp_path, capsys,
                                                                       monkeypatch):
    # the values CSV was once simulated and written, and only the sidecar's open failed
    monkeypatch.chdir(tmp_path)
    save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    (tmp_path / "x.meta.json").mkdir()

    def refuse(*args, **kwargs):
        raise AssertionError("work began before the sidecar path was checked")

    monkeypatch.setattr(isofield.cli, "load_model", refuse)
    assert main(["simulate", "--model", "spatial.json", "--points", "random:2",
                 "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == ("error: --out 'x.csv': its sidecar 'x.meta.json' is a "
                                       "directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spatial.json", "x.meta.json"]


class FullDisk:
    """A text stream whose writes fail with ENOSPC after the first two (the header or "[",
    then the first chunk of rows)."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)


@pytest.mark.parametrize("argv", [
    ["eval-cov", "--rho-grid", f"0:3:{_WRITE_CHUNK + 1}"],
    ["eval-cov", "--rho-grid", f"0:3:{_WRITE_CHUNK + 1}", "--format", "json"],
    ["simulate", "--points", f"random:{_WRITE_CHUNK + 1}"]])
def test_a_failed_write_exits_two_naming_out(tmp_path, capsys, monkeypatch, argv):
    # the errno text alone once named no flag, and the header and first chunk once replaced the
    # old --out; now the old files keep their bytes and no temporary file is left
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    write_table = isofield.simulate._write_table

    def full(fh, *args):
        write_table(FullDisk(fh), *args)

    monkeypatch.setattr(isofield.simulate, "_write_table", full)
    monkeypatch.setattr(isofield.cli, "_write_table", full)
    out = str(tmp_path / "out.csv")
    old = {"out.csv": b"old values\r\n", "out.meta.json": b"{}\n"}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    assert main([*argv, "--model", str(path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out {out!r}: {os.strerror(errno.ENOSPC)}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        "spatial.json": path.read_bytes(), **old}


def test_a_failed_sidecar_write_exits_two_naming_out(tmp_path, capsys, monkeypatch):
    # the message once named only the values CSV, which was left with no sidecar beside it
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    replacing = isofield.simulate._replacing

    @contextlib.contextmanager
    def full(target):
        with replacing(target) as fh:
            if str(target).endswith(".meta.json"):
                fh = FullDisk(fh)
                fh.writes = 2  # its next write fails
            yield fh

    monkeypatch.setattr(isofield.simulate, "_replacing", full)
    out, meta = str(tmp_path / "run.csv"), str(tmp_path / "run.meta.json")
    assert main(["simulate", "--model", str(path), "--points", "random:3", "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: --out {out!r}: its sidecar {meta!r}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spatial.json"]


def test_a_sidecar_in_a_missing_folder_exits_two_naming_it(tmp_path, capsys, monkeypatch):
    # x.meta.json, a symlink into a missing folder, once failed after x.csv was written, and
    # the message named x.csv
    monkeypatch.chdir(tmp_path)
    save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    (tmp_path / "x.meta.json").symlink_to(tmp_path / "missing" / "x.meta.json")
    assert main(["simulate", "--model", "spatial.json", "--points", "random:2",
                 "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == ("error: --out 'x.csv': its sidecar 'x.meta.json': "
                                       f"{os.strerror(errno.ENOENT)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spatial.json", "x.meta.json"]


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    # symlinks are followed, so the link stays a link and its target gets the new bytes
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "table.csv").write_text("old\n")
    (tmp_path / "link.csv").symlink_to(tmp_path / "real" / "table.csv")
    assert main(["eval-cov", "--model", str(path)]) == 0
    want = capsys.readouterr().out
    assert main(["eval-cov", "--model", str(path), "--out", str(tmp_path / "link.csv")]) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "real" / "table.csv").read_bytes() == want.encode()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.csv", "real", "spatial.json",
                                                           "table.csv"]


def test_out_that_is_a_fifo_is_written_in_place(tmp_path, capsys):
    # a replace would swap the FIFO for a regular file, which its reader would never see
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    assert main(["eval-cov", "--model", str(path)]) == 0
    want = capsys.readouterr().out
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that the write end opens at once
    try:
        assert main(["eval-cov", "--model", str(path), "--out", str(fifo)]) == 0
        assert os.read(reader, 1 << 16) == want.encode()  # 25 rows fit the pipe's buffer
    finally:
        os.close(reader)
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spatial.json", "table.fifo"]


def test_a_closed_stdout_pipe_exits_two_with_one_line(tmp_path):
    # a reader that stops early, as head does, once left "error: [Errno 32] Broken pipe"
    path = save_model(SeriesModel(S2, 1, [np.eye(1)]), tmp_path / "spatial.json")
    src = str(Path(isofield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen([sys.executable, "-m", "isofield.cli", "eval-cov", "--model",
                              str(path), "--rho-grid", "0:3:100000"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"rho,lag,component_i,component_j,value,tail_bound\r\n"
    child.stdout.close()
    assert child.wait(timeout=120) == 2
    assert child.stderr.read() == (b"error: stdout was closed before the whole output was "
                                   b"written\n")
    child.stderr.close()


@pytest.mark.parametrize("command", ["validate", "eval-cov", "spectrum", "simulate"])
def test_model_that_is_no_file_exits_two_naming_the_flag(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    extra = ["--points", "random:2", "--out", "run.csv"] if command == "simulate" else []
    for name, state in (("sub", "is not a file"), ("missing.json", "does not exist")):
        assert main([command, "--model", name, *extra]) == 2
        assert capsys.readouterr().err == f"error: --model file {name!r} {state}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_check_with_an_empty_space_list_exits_two(tmp_path, capsys):
    out = tmp_path / "checks.json"
    assert main(["check", "--spaces", "", "--replicates", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --spaces '' names no space")
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


@pytest.mark.parametrize("temporal", [{"variant": "exponential", "theta": 1.5},
                                      {"variant": "ar1", "phi": -0.6}], ids=["exponential", "ar1"])
def test_times_whose_gap_overflows_simulate(tmp_path, capsys, temporal):
    # the gap between -1e308 and 1e308 reads inf; it once exited 2 with "lag inf is not finite"
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"space": "sphere:2", "m": 1, "coeffs": [[[1.0]], [[0.5]]],
                                 "temporal": temporal}))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--model", str(model), "--points", "random:3",
                 "--times", "-1e308,1e308", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "run.meta.json").read_text())["times"] == [-1e308, 1e308]
    assert np.isfinite(load_realization_values(out)).all()


# Boundary harness, lag and time lists: generated --lags and --times values end in a
# documented exit, never in a traceback or a warning.
HARNESS_MODELS = {
    "spatial": {},
    "pure_spatial": {"temporal": {"variant": "pure_spatial"}},
    "ar1": {"temporal": {"variant": "ar1", "phi": -0.6}},
    "exponential": {"temporal": {"variant": "exponential", "theta": 1.5}},
    "ma1": {"temporal": {"variant": "ma1", "phi": [[0.4]]}},
}
DOCUMENTED_PREFIXES = ("error: ", "invalid model: ", "unsupported geometry: ", "usage: ")
_LIST_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "-0.0", "-0", "-1e308,1e308"]),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e308", "-1e308",
                     "1e400", "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308",
                     "abc", "1e", "0x10", "1_0", "--1", "", " "]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
)


@pytest.fixture(scope="module")
def harness_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("harness")
    for name, extra in HARNESS_MODELS.items():
        doc = {"space": "sphere:2", "m": 1, "coeffs": [[[1.0]], [[0.5]]], **extra}
        (folder / f"{name}.json").write_text(json.dumps(doc))
    return folder


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_lag_and_time_lists_end_in_a_documented_exit(harness_dir, data):
    command = data.draw(st.sampled_from(["validate", "eval-cov", "simulate"]))
    model = data.draw(st.sampled_from(sorted(HARNESS_MODELS)))
    text = ",".join(data.draw(st.lists(_LIST_TOKENS, max_size=4)))
    flag = "--times" if command == "simulate" else "--lags"
    out, meta = harness_dir / "run.csv", harness_dir / "run.meta.json"
    out.unlink(missing_ok=True)
    meta.unlink(missing_ok=True)
    argv = [command, "--model", str(harness_dir / f"{model}.json"), "--out", str(out),
            *([f"{flag}={text}"] if data.draw(st.booleans()) else [flag, text]),
            *{"simulate": ["--points", "random:2"], "eval-cov": ["--rho-grid", "0:3:3"]}.get(
                command, [])]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, stderr)
    assert not caught and "Warning" not in stderr and "Traceback" not in stderr, (argv, stderr)
    if code != 0:
        assert stderr.startswith(DOCUMENTED_PREFIXES), (argv, stderr)
    elif command == "simulate":
        assert out.exists() and meta.exists(), argv


# Boundary harness, the other flags: --trunc, --rho-grid, --replicates, --points and --seed at
# and just past each cap (the harness models have degrees 0 and 1). A count at MAX_COUNT is
# run against a second cap that stops the run cheaply, so the error names that cap instead.
_ELEVEN_TIMES = ",".join(map(str, range(11)))  # 11 x MAX_COUNT values, over MAX_VALUES
FLAG_CASES = {
    "trunc-at-cap": (["eval-cov", "spatial", "--trunc", "1"], 0, ""),
    "trunc-past-cap": (["eval-cov", "spatial", "--trunc", "2"], 2,
                       "error: truncation degree 2 exceeds stored maximum degree 1\n"),
    "simulate-trunc-at-cap": (["simulate", "exponential", "--points", "random:2", "--times",
                               "0,1", "--trunc", "1"], 0, ""),
    "simulate-trunc-past-cap": (["simulate", "spatial", "--points", "random:2", "--trunc", "2"],
                                2, "error: truncation degree 2 exceeds stored maximum degree 1\n"),
    "trunc-zero": (["simulate", "spatial", "--points", "random:2", "--trunc", "0"], 0, ""),
    "trunc-negative": (["eval-cov", "spatial", "--trunc", "-1"], 2,
                       "error: truncation degree must be a nonnegative integer, got -1\n"),
    "rho-grid-count-one": (["eval-cov", "spatial", "--rho-grid", "0:1:1"], 0, ""),
    "rho-grid-count-zero": (["eval-cov", "spatial", "--rho-grid", "0:1:0"], 2,
                            f"error: grid '0:1:0' needs a count in 1..{MAX_COUNT} (the cap)\n"),
    "rho-grid-count-at-cap": (["eval-cov", "exponential", "--rho-grid", f"0:1:{MAX_COUNT}",
                               "--lags", _ELEVEN_TIMES], 2,
                              f"error: --rho-grid and --lags ask for {MAX_COUNT} x 11 x 1 "),
    # math.pi, then the next float up
    "rho-grid-at-pi": (["eval-cov", "spatial", "--rho-grid", "0:3.141592653589793:2"], 0, ""),
    "rho-grid-past-pi": (["eval-cov", "spatial", "--rho-grid", "0:3.1415926535897936:2"], 2,
                         "error: bad grid '0:3.1415926535897936:2'; distances must lie in "),
    "replicates-at-floor": (["check", "--replicates", "2", "--spaces", "sphere:2"], 0, ""),
    "replicates-at-cap": (["check", "--replicates", str(MAX_COUNT), "--spaces", "sphere:99999999"],
                          2, "error: dimension 99999999 of sphere exceeds the cap of "),
    "points-count-one": (["simulate", "spatial", "--points", "random:1"], 0, ""),
    "fibonacci-count-one": (["simulate", "spatial", "--points", "fibonacci:1"], 0, ""),
    "points-count-at-cap": (["simulate", "exponential", "--points", f"random:{MAX_COUNT}",
                             "--times", _ELEVEN_TIMES], 2,
                            f"error: --points and --times ask for {MAX_COUNT} x 11 x 1 "),
    "fibonacci-count-at-cap": (["simulate", "exponential", "--points", f"fibonacci:{MAX_COUNT}",
                                "--times", _ELEVEN_TIMES], 2,
                               f"error: --points and --times ask for {MAX_COUNT} x 11 x 1 "),
    "seed-zero": (["simulate", "spatial", "--points", "random:2", "--seed", "0"], 0, ""),
    "seed-of-4000-bits": (["simulate", "spatial", "--points", "random:2", "--seed",
                           str(2**4000)], 0, ""),
    "check-seed-of-4000-bits": (["check", "--replicates", "2", "--spaces", "sphere:2",
                                 "--seed", str(2**4000)], 0, ""),
    # int() reads at most 4,300 digits (sys.get_int_max_str_digits), so argparse refuses more
    "seed-past-the-digit-cap": (["simulate", "spatial", "--points", "random:2", "--seed",
                                 "1" * 4301], 2, "usage: "),
}


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_flags_at_and_past_their_caps_end_in_a_documented_exit(harness_dir, case):
    argv, want_code, want_err = FLAG_CASES[case]
    command, rest = argv[0], argv[1:]
    out = harness_dir / ("check.json" if command == "check" else "flags.csv")
    if command != "check":
        rest = ["--model", str(harness_dir / f"{rest[0]}.json"), *rest[1:]]
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([command, *rest, "--out", str(out)])
    stderr = err.getvalue()
    assert code == want_code, (case, stderr)
    assert not caught and "Warning" not in stderr and "Traceback" not in stderr, (case, stderr)
    if code:
        assert stderr.startswith(DOCUMENTED_PREFIXES) and stderr.startswith(want_err), stderr
        assert not out.exists()
    else:
        assert out.exists()


def _high_dimension_model(tmp_path, degrees):
    """An m = 1 model on sphere:1000 with B_n = 1/(n+1)^2: P_n(1) overflows a float from
    degree 532 on, and the eigenspace dimension from degree 308 on."""
    path = tmp_path / f"high{degrees}.json"
    path.write_text(json.dumps({"space": "sphere:1000", "m": 1,
                                "coeffs": [[[1.0 / (n + 1) ** 2]] for n in range(degrees)]}))
    return str(path)


def test_overflowing_constants_end_in_a_documented_exit(tmp_path, capsys):
    # math.exp raised OverflowError out of main for all of these
    divergent = "degree 999 lag spatial: divergent (magnitude inf)"
    many = _high_dimension_model(tmp_path, 1000)
    assert main(["validate", "--model", many, "--out", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {"valid": False, "violations": [
        {"degree": 999, "lag": "spatial", "kind": "divergent", "magnitude": math.inf}]}
    for argv in (["eval-cov", "--rho-grid", "0:3:4"], ["spectrum"],
                 ["simulate", "--points", "random:3"]):
        assert main(argv + ["--model", many, "--out", str(tmp_path / "out.csv")]) == 1
        assert divergent in capsys.readouterr().err
    fewer = _high_dimension_model(tmp_path, 400)
    assert main(["spectrum", "--model", fewer, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: degree 308: the eigenspace dimension of sphere:1000 overflows\n")
    assert main(["validate", "--model", fewer, "--out", "-"]) == 0
