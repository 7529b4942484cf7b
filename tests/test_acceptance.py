"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (with its runtime) once its assertions
hold, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from isofield import (
    JacobiParams,
    SeriesModel,
    SeparableScalar,
    VectorMA1,
    a_constant,
    check_space_identities,
    dim_eigenspace,
    distance,
    empirical_cov,
    eval_cov,
    gauss_jacobi,
    jacobi_at_one,
    jacobi_eval,
    jacobi_norm_constant,
    make_point,
    mc_funk_hecke,
    mc_recover_vn,
    mc_zonal_covariance,
    parse_space,
    recover_coefficients,
    replicate_seeds,
    sample_uniform_batch,
    save_model,
    simulate_spatial,
    simulate_spatiotemporal,
    sphere_volume,
    validate_spatial,
    validate_spatiotemporal,
)
from isofield.cli import main as cli_main
from isofield.spaces import cos_distance_batch
from tests.oracles import random_psd

S2 = parse_space("sphere:2")

GEOM_PAIRS = [
    ("sphere:2", JacobiParams(0.0, 0.0)),
    ("projR:3", JacobiParams(0.5, -0.5)),
    ("projC:4", JacobiParams(1.0, 0.0)),
    ("projH:8", JacobiParams(3.0, 1.0)),
    ("projO:16", JacobiParams(7.0, 3.0)),
]

SAMPLEABLE = ["sphere:2", "projR:3", "projC:4", "projH:8"]

ALL_SPACES = [
    "sphere:1", "sphere:2", "sphere:3", "sphere:8", "sphere:16",
    "projR:2", "projR:3", "projR:9", "projR:16",
    "projC:4", "projC:6", "projC:8",
    "projH:8", "projH:12",
    "projO:16",
]


def report(criterion: int, detail: str, start: float) -> None:
    print(f"PASS criterion {criterion}: {detail} [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_jacobi_orthogonality():
    start = time.perf_counter()
    for label, params in GEOM_PAIRS:
        rule = gauss_jacobi(26, params)
        values = np.stack([jacobi_eval(n, params, rule.nodes) for n in range(26)])
        gram = (values * rule.weights) @ values.T
        norms = np.array([jacobi_norm_constant(j, params) for j in range(26)])
        for i in range(26):
            for j in range(26):
                want = norms[i] if i == j else 0.0
                tol = 1e-9 * norms[max(i, j)]
                assert abs(gram[i, j] - want) <= tol, (label, i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "order-26 quadrature reproduces orthogonality for all five parameter pairs", start)


def test_criterion_2_space_identities():
    start = time.perf_counter()
    for label in ALL_SPACES:
        space = parse_space(label)
        # volume is the Weinstein multiple of the equal-dimension sphere
        rel = abs(space.volume - space.weinstein * sphere_volume(space.d)) / space.volume
        assert rel <= 1e-9, label
        # the multiple is the tabulated integer
        d = space.d
        table = {
            "sphere": 1,
            "projR": 2 ** (d - 1),
            "projC": math.comb(d - 1, d // 2 - 1) if d % 2 == 0 else None,
            "projH": math.comb(d - 1, d // 2 - 1) // (d // 2 + 1) if d % 4 == 0 else None,
            "projO": 39,
        }[space.family.value]
        assert space.weinstein == table, label
        for n in range(51):
            lhs = a_constant(space, n) ** 2 * jacobi_at_one(n, space.geom)
            dim = dim_eigenspace(space, n)
            assert abs(lhs - dim) <= 1e-8 * max(1.0, dim), (label, n)
        assert check_space_identities(space).passed, label
    for n in range(51):
        assert abs(dim_eigenspace(S2, n) - (2 * n + 1)) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"volume/Weinstein/eigenspace identities on {len(ALL_SPACES)} spaces", start)


def test_criterion_3_funk_hecke():
    start = time.perf_counter()
    checked = 0
    for label in SAMPLEABLE:
        space = parse_space(label)
        rng = np.random.default_rng(301)
        for pair in range(3):
            x1, x2 = sample_uniform_batch(space, 2, rng)
            for i in range(5):
                for j in range(5):
                    est = mc_funk_hecke(
                        space, i, j, x1, x2,
                        replicates=100_000,
                        seed=1000 + 100 * pair + 10 * i + j,
                    )
                    assert est.passed, (label, pair, i, j, est.z_score)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"{checked} zonal-product integrals within 5 SE on 4 spaces", start)


def test_criterion_4_zonal_field():
    start = time.perf_counter()
    for label in SAMPLEABLE:
        space = parse_space(label)
        rng = np.random.default_rng(401)
        x1, x2 = sample_uniform_batch(space, 2, rng)
        for n in (1, 2):
            chk = mc_zonal_covariance(space, n, x1, x2, replicates=100_000, seed=40 + n)
            assert chk.mean.passed, (label, n, "mean", chk.mean.z_score)
            assert chk.covariance.passed, (label, n, "cov", chk.covariance.z_score)
            assert chk.cross.passed, (label, n, "cross", chk.cross.z_score)
    report(4, "zonal fields: mean 0, covariance P_n(cos rho), degrees uncorrelated", start)


def _theorem1_points():
    coords = [
        [0, 0, 1], [1, 0, 0], [0, 1, 0],
        [1 / math.sqrt(2), 0, 1 / math.sqrt(2)],
        [0.6, 0.8, 0.0], [-0.8, 0.0, 0.6],
    ]
    return [make_point(S2, c) for c in coords]


def test_criterion_5_spatial_series_reproduction():
    start = time.perf_counter()
    model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2), 0.25 * np.eye(2)])
    points = _theorem1_points()
    pairs = [(0, 0), (0, 1), (0, 3), (1, 2), (4, 5)]
    seeds = replicate_seeds(505_000, 20_000)
    ensemble = [simulate_spatial(model, points, trunc=2, seed=s) for s in seeds]
    for pair in pairs:
        est = empirical_cov(ensemble, pair, 0.0)
        assert est.passed, (pair, est.z_score)
    # degree-wise terms at two fixed points are mutually uncorrelated
    xa, xb = ensemble[0].points[[0, 3]]
    terms = np.empty((len(ensemble), 3, 2, 2))  # (replicate, degree, point, component)
    for r, real in enumerate(ensemble):
        for point_slot, x in enumerate((xa, xb)):
            c = cos_distance_batch(S2, real.latent_u, x[None])[0]
            for n in range(3):
                terms[r, n, point_slot] = real.latent_v[n, 0] * jacobi_eval(n, S2.geom, c)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            prods = terms[:, i, 0][:, :, None] * terms[:, j, 1][:, None, :]
            se = prods.std(axis=0, ddof=1) / math.sqrt(len(ensemble))
            assert np.all(np.abs(prods.mean(axis=0)) <= 5 * se), (i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "ensemble covariance and degree orthogonality at 20000 replicates", start)


def test_criterion_6_ma1_spatiotemporal():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    phi = np.array([[0.5, -0.3], [0.25, 0.4]])
    sigmas = [random_psd(rng, 2, 0.8**n) + 0.1 * np.eye(2) for n in range(3)]
    model = SeriesModel(S2, 2, sigmas, VectorMA1(phi))
    points = [_theorem1_points()[0], _theorem1_points()[3]]
    times = [0.0, 1.0, 2.0]
    seeds = replicate_seeds(606_000, 20_000)
    ensemble = [
        simulate_spatiotemporal(model, points, times, trunc=2, seed=s) for s in seeds
    ]
    estimates = {}
    for lag in (-2.0, -1.0, 0.0, 1.0, 2.0):
        est = empirical_cov(ensemble, (0, 1), lag)
        assert est.passed, (lag, est.z_score)
        estimates[lag] = est
        if abs(lag) >= 2:
            assert np.allclose(np.asarray(est.target), 0.0)
    for lag in (1.0, 2.0):
        plus, minus = estimates[lag], estimates[-lag]
        band = 5 * (np.asarray(plus.std_error).T + np.asarray(minus.std_error))
        gap = np.abs(np.asarray(minus.value) - np.asarray(plus.value).T)
        assert np.all(gap <= band), lag
    report(6, "moving-average covariance at lags -2..2, transpose law included", start)


def test_criterion_7_coefficient_round_trip():
    start = time.perf_counter()
    for label, _ in GEOM_PAIRS:
        space = parse_space(label)
        rng = np.random.default_rng(707)
        truth = SeriesModel(
            space, 2, [random_psd(rng, 2, 0.6**n) for n in range(9)]
        )
        assert validate_spatial(truth).valid
        got = recover_coefficients(
            lambda rho: eval_cov(truth, rho), space, 2, N=8, order=12
        )
        for n in range(9):
            err = np.max(np.abs(got.coeffs[n] - truth.coeffs[n]))
            assert err <= 1e-9, (label, n, err)
    report(7, "recover(eval(model)) exact to 1e-9 on all five spaces", start)


def test_criterion_8_coefficient_process_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    model = SeriesModel(
        S2,
        2,
        [random_psd(rng, 2, 0.7**n) + 0.05 * np.eye(2) for n in range(6)],
        SeparableScalar("ar1", 0.45),
    )
    points = [_theorem1_points()[1]]
    real = simulate_spatiotemporal(model, points, [0.0, 1.0], trunc=5, seed=81_000)
    for n in range(6):
        for est in mc_recover_vn(real, n, replicates_for_integral=100_000, seed=82 + n):
            assert est.passed, (n, est.z_score)
    for est in mc_recover_vn(real, 6, replicates_for_integral=100_000, seed=89):
        assert np.allclose(np.asarray(est.target), 0.0)
        assert est.passed, ("absent degree", est.z_score)
    report(8, "degree coefficients recovered from the field integral, absent degree reads 0", start)


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)])
    path = save_model(model, tmp_path / "model.json")
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / f"{name}.csv"
        code = cli_main(
            ["simulate", "--model", str(path), "--points", "fibonacci:64",
             "--seed", "4242", "--trunc", "1", "--out", str(out)]
        )
        assert code == 0
        meta = tmp_path / f"{name}.meta.json"
        digests.append(
            (
                hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(meta.read_bytes()).hexdigest(),
            )
        )
    assert digests[0] == digests[1]
    report(9, "identical simulate configs give byte-identical CSV and sidecar", start)


def test_criterion_10_validity_gate(tmp_path):
    start = time.perf_counter()
    # indefinite coefficient, via the file-based front end
    doc = {
        "space": "sphere:2",
        "m": 2,
        "coeffs": [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -0.2]],
        ],
    }
    bad_path = tmp_path / "indefinite.json"
    bad_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert cli_main(["validate", "--model", str(bad_path), "--out", str(out)]) == 1
    parsed = json.loads(out.read_text())
    assert any(
        v["kind"] == "indefinite" and v["degree"] == 1 for v in parsed["violations"]
    )

    # kernel breaking the transpose law, via the library gate
    class LopsidedKernel:
        domain = "integers"

        def coeff_at(self, n, t, coeffs):
            if t == 1.0:
                return 0.3 * coeffs[n]
            if t == -1.0:
                return 0.1 * coeffs[n]
            return coeffs[n] if t == 0.0 else np.zeros_like(coeffs[n])

    tampered = SeriesModel(S2, 2, [np.eye(2)], LopsidedKernel())
    rep = validate_spatiotemporal(tampered, [-2, -1, 0, 1, 2])
    assert not rep.valid
    assert any(v.kind == "asymmetric" and v.degree == 0 for v in rep.violations)

    # the moving-average family itself passes
    rng = np.random.default_rng(1010)
    ma = SeriesModel(
        S2, 2, [random_psd(rng, 2) for _ in range(3)],
        VectorMA1(0.6 * rng.standard_normal((2, 2))),
    )
    assert validate_spatiotemporal(ma, [-2, -1, 0, 1, 2]).valid
    report(10, "indefinite and asymmetric models rejected with attribution; MA(1) passes", start)
