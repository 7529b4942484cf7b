import math

import numpy as np
import pytest

from isofield import (
    MCEstimate,
    SeriesModel,
    UsageError,
    VectorMA1,
    check_space_identities,
    distance,
    empirical_cov,
    eval_cov,
    jacobi_eval,
    mc_funk_hecke,
    mc_recover_vn,
    mc_zonal_covariance,
    parse_space,
    replicate_seeds,
    sample_uniform,
    simulate_spatial,
    simulate_spatiotemporal,
)
from isofield.spaces import a_constant
from isofield.spectral import ZERO_LAG
from tests.oracles import empirical_cov_per_replicate, random_psd

S2 = parse_space("sphere:2")


class TestMCEstimate:
    def test_z_score_componentwise_max(self):
        est = MCEstimate(
            value=np.array([1.0, 2.0]),
            std_error=np.array([0.1, 0.5]),
            replicates=100,
            target=np.array([1.05, 1.0]),
        )
        assert est.z_score == pytest.approx(2.0)
        assert est.passed

    def test_zero_variance_exact_match_passes(self):
        est = MCEstimate(value=4.0, std_error=0.0, replicates=10, target=4.0)
        assert est.z_score == 0.0 and est.passed

    def test_zero_variance_mismatch_fails(self):
        est = MCEstimate(value=4.0, std_error=0.0, replicates=10, target=3.0)
        assert est.z_score == math.inf and not est.passed

    def test_replicate_seeds_deterministic_and_distinct(self):
        a = replicate_seeds(42, 1000)
        b = replicate_seeds(42, 1000)
        assert a == b
        assert len(set(a)) == 1000
        assert replicate_seeds(43, 10) != a[:10]


class TestFunkHecke:
    def setup_method(self):
        rng = np.random.default_rng(51)
        self.x1 = sample_uniform(S2, rng)
        self.x2 = sample_uniform(S2, rng)

    def test_distinct_degrees_vanish(self):
        est = mc_funk_hecke(S2, 1, 3, self.x1, self.x2, replicates=40_000, seed=1)
        assert est.target == 0.0
        assert est.passed

    def test_same_degree_same_point(self):
        est = mc_funk_hecke(S2, 2, 2, self.x1, self.x1, replicates=40_000, seed=2)
        a2 = a_constant(S2, 2)
        assert est.target == pytest.approx(S2.volume / a2**2 * jacobi_eval(2, S2.geom, 1.0))
        assert est.passed

    def test_degree_one_orthogonal_points(self):
        x1 = S2 and parse_space("sphere:2")
        p1 = sample_uniform(S2, np.random.default_rng(3))
        # construct a point at right angle to p1
        v = np.zeros(3)
        v[np.argmin(np.abs(p1.coords))] = 1.0
        v -= (v @ p1.coords) * p1.coords
        from isofield import make_point

        p2 = make_point(S2, v)
        est = mc_funk_hecke(S2, 1, 1, p1, p2, replicates=40_000, seed=4)
        assert est.target == pytest.approx(0.0, abs=1e-12)  # P_1(cos pi/2) = 0
        assert est.passed

    def test_degenerate_pair_has_zero_z(self):
        est = mc_funk_hecke(S2, 0, 0, self.x1, self.x2, replicates=1000, seed=5)
        assert est.std_error <= 1e-12 and est.z_score == 0.0
        assert float(est.value) == pytest.approx(S2.volume, rel=1e-12)

    def test_deterministic_given_seed(self):
        a = mc_funk_hecke(S2, 1, 2, self.x1, self.x2, replicates=5000, seed=6)
        b = mc_funk_hecke(S2, 1, 2, self.x1, self.x2, replicates=5000, seed=6)
        assert float(a.value) == float(b.value)

    @pytest.mark.parametrize("label", ["projR:3", "projC:4", "projH:8"])
    def test_projective_spaces(self, label):
        space = parse_space(label)
        rng = np.random.default_rng(7)
        x1, x2 = sample_uniform(space, rng), sample_uniform(space, rng)
        for i, j in ((0, 1), (2, 2)):
            est = mc_funk_hecke(space, i, j, x1, x2, replicates=40_000, seed=8)
            assert est.passed, (label, i, j, est.z_score)


class TestZonalCovariance:
    def test_same_point_targets_pn_at_one(self):
        rng = np.random.default_rng(61)
        x = sample_uniform(S2, rng)
        chk = mc_zonal_covariance(S2, 2, x, x, replicates=50_000, seed=9)
        assert chk.covariance.target == pytest.approx(jacobi_eval(2, S2.geom, 1.0))
        assert chk.covariance.passed and chk.mean.passed and chk.cross.passed

    def test_generic_pair(self):
        rng = np.random.default_rng(62)
        x1, x2 = sample_uniform(S2, rng), sample_uniform(S2, rng)
        chk = mc_zonal_covariance(S2, 3, x1, x2, replicates=50_000, seed=10)
        rho = distance(S2, x1, x2)
        assert chk.covariance.target == pytest.approx(jacobi_eval(3, S2.geom, math.cos(rho)))
        assert chk.covariance.passed
        assert chk.cross.target == 0.0 and chk.cross.passed
        assert chk.mean.target == 0.0 and chk.mean.passed

    def test_preconditions(self):
        rng = np.random.default_rng(63)
        x = sample_uniform(S2, rng)
        with pytest.raises(UsageError):
            mc_zonal_covariance(S2, 0, x, x)


class TestEmpiricalCov:
    def _ensemble(self, model, points, times, count, master):
        if model.domain != ZERO_LAG:
            return [
                simulate_spatiotemporal(model, points, times, seed=s)
                for s in replicate_seeds(master, count)
            ]
        return [simulate_spatial(model, points, seed=s) for s in replicate_seeds(master, count)]

    def test_degree_zero_identity_target(self):
        model = SeriesModel(S2, 2, [np.eye(2)])
        pts = [sample_uniform(S2, np.random.default_rng(71))]
        ens = self._ensemble(model, pts, None, 3000, 1)
        est = empirical_cov(ens, (0, 0), 0.0)
        assert np.allclose(est.target, np.eye(2))
        assert est.passed

    def test_ma1_lags(self):
        rng = np.random.default_rng(72)
        model = SeriesModel(
            S2, 2, [random_psd(rng, 2), random_psd(rng, 2)], VectorMA1(0.5 * np.eye(2))
        )
        pts = [sample_uniform(S2, rng), sample_uniform(S2, rng)]
        ens = self._ensemble(model, pts, [0, 1, 2], 4000, 2)
        for lag in (-1.0, 0.0, 1.0, 2.0):
            est = empirical_cov(ens, (0, 1), lag)
            assert est.passed, (lag, est.z_score)

    def test_transpose_of_estimates(self):
        rng = np.random.default_rng(73)
        model = SeriesModel(
            S2, 2, [random_psd(rng, 2)], VectorMA1(np.array([[0.5, -0.2], [0.3, 0.1]]))
        )
        pts = [sample_uniform(S2, rng), sample_uniform(S2, rng)]
        ens = self._ensemble(model, pts, [0, 1], 4000, 3)
        plus = empirical_cov(ens, (0, 1), 1.0)
        minus = empirical_cov(ens, (0, 1), -1.0)
        band = 5 * (np.asarray(plus.std_error) + np.asarray(minus.std_error).T)
        assert np.all(np.abs(np.asarray(minus.value) - np.asarray(plus.value).T) <= band)

    def test_heterogeneous_rejected(self):
        model = SeriesModel(S2, 1, [np.eye(1)])
        pts = [sample_uniform(S2, np.random.default_rng(74))]
        a = simulate_spatial(model, pts, seed=1)
        b = simulate_spatial(model, pts, seed=1)  # same seed: not independent
        with pytest.raises(UsageError):
            empirical_cov([a, b], (0, 0), 0.0)
        c = simulate_spatial(model, pts, trunc=0, seed=2)
        other = SeriesModel(S2, 1, [2.0 * np.eye(1)])
        d = simulate_spatial(other, pts, seed=3)
        with pytest.raises(UsageError):
            empirical_cov([a, d], (0, 0), 0.0)

    @pytest.mark.parametrize("pair", [(0, 5), (0.5, 1), (-1, 0), (0, 2), (0,), "01"])
    def test_point_pair_outside_points_rejected(self, pair):
        model = SeriesModel(S2, 1, [np.eye(1)])
        rng = np.random.default_rng(76)
        pts = [sample_uniform(S2, rng), sample_uniform(S2, rng)]
        ens = self._ensemble(model, pts, None, 3, 5)
        with pytest.raises(UsageError, match="point pair"):
            empirical_cov(ens, pair, 0.0)
        assert empirical_cov(ens, (np.int64(1), 0), 0.0).replicates == 3

    @pytest.mark.parametrize("kind", ["spatial", "ma1"])
    def test_stacked_products_equal_per_replicate_loop(self, kind):
        rng = np.random.default_rng(77)
        sigmas = [random_psd(rng, 3) for _ in range(3)]
        if kind == "spatial":
            model, times = SeriesModel(S2, 3, sigmas), None
        else:
            model = SeriesModel(S2, 3, sigmas, VectorMA1(0.4 * random_psd(rng, 3)))
            times = [0, 1, 2, 4]
        pts = [sample_uniform(S2, rng) for _ in range(3)]
        ens = self._ensemble(model, pts, times, 50, 6)
        grid = times or [0]
        for pair in ((0, 1), (2, 2), (1, 0)):
            for lag in sorted({float(s - t) for s in grid for t in grid}):
                pairs = [(i, j) for i, s in enumerate(grid) for j, t in enumerate(grid)
                         if s - t == lag]
                per_rep = empirical_cov_per_replicate(ens, *pair, pairs)
                est = empirical_cov(ens, pair, lag)
                assert np.array_equal(est.value, per_rep.mean(axis=0))
                assert np.array_equal(est.std_error,
                                      per_rep.std(axis=0, ddof=1) / np.sqrt(len(ens)))

    def test_unrealizable_lag_rejected(self):
        model = SeriesModel(S2, 1, [np.eye(1)])
        pts = [sample_uniform(S2, np.random.default_rng(75))]
        ens = self._ensemble(model, pts, None, 3, 4)
        with pytest.raises(UsageError):
            empirical_cov(ens, (0, 0), 1.0)


class TestRecoverVn:
    def test_recovers_recorded_path_and_zero_beyond(self):
        rng = np.random.default_rng(81)
        model = SeriesModel(
            S2,
            2,
            [random_psd(rng, 2, 0.6**n) for n in range(3)],
            VectorMA1(0.4 * np.eye(2)),
        )
        pts = [sample_uniform(S2, rng)]
        real = simulate_spatiotemporal(model, pts, [0, 1], seed=11)
        for n in range(3):
            for est in mc_recover_vn(real, n, replicates_for_integral=30_000, seed=12 + n):
                assert est.passed, (n, est.z_score)
        for est in mc_recover_vn(real, 3, replicates_for_integral=30_000, seed=19):
            assert np.allclose(est.target, 0.0)
            assert est.passed

    def test_scalar_degree_zero_plain_average(self):
        model = SeriesModel(S2, 1, [np.eye(1)])
        pts = [sample_uniform(S2, np.random.default_rng(82))]
        real = simulate_spatial(model, pts, seed=13)
        (est,) = mc_recover_vn(real, 0, replicates_for_integral=20_000, seed=14)
        # P_0 == 1 so the estimator is the plain average of the constant field
        assert float(np.asarray(est.value)[0]) == pytest.approx(
            float(real.latent_v[0, 0, 0]), rel=1e-9
        )
        assert est.passed

    def test_missing_latent_rejected(self):
        model = SeriesModel(S2, 1, [np.eye(1)])
        pts = [sample_uniform(S2, np.random.default_rng(83))]
        real = simulate_spatial(model, pts, seed=15)
        real.latent_v = None
        with pytest.raises(UsageError):
            mc_recover_vn(real, 0)


class TestSpaceIdentities:
    @pytest.mark.parametrize(
        "label",
        ["sphere:1", "sphere:2", "sphere:8", "projR:2", "projR:3", "projR:9",
         "projC:4", "projC:8", "projH:8", "projH:12", "projO:16"],
    )
    def test_all_supported_spaces_pass(self, label):
        report = check_space_identities(parse_space(label))
        assert report.passed, report.failures()

    def test_reports_have_identity_strings(self):
        report = check_space_identities(S2)
        for chk in report.checks:
            assert chk.identity and chk.name
        doc = report.as_dict()
        assert doc["pass"] is True and len(doc["checks"]) == 6

    def test_fault_injection_names_failed_identity(self, monkeypatch):
        monkeypatch.setattr("isofield.verify.a_constant",
                            lambda space, n: 1.01 * a_constant(space, n))
        report = check_space_identities(S2)
        assert not report.passed
        assert any(c.name == "eigenspace_dimension" for c in report.failures())


class TestSeedStability:
    def test_verdict_stable_across_seeds(self):
        # 5-sigma checks must not flip between runs with fresh seeds
        rng = np.random.default_rng(91)
        x1, x2 = sample_uniform(S2, rng), sample_uniform(S2, rng)
        for seed in (1, 2, 3):
            est = mc_funk_hecke(S2, 2, 1, x1, x2, replicates=30_000, seed=seed)
            assert est.passed, (seed, est.z_score)
            chk = mc_zonal_covariance(S2, 2, x1, x2, replicates=30_000, seed=seed)
            assert chk.covariance.passed and chk.mean.passed and chk.cross.passed


class TestIsotropyOfEstimates:
    def test_equal_distance_pairs_agree(self):
        # two point pairs at the same separation must give estimates inside
        # each other's 5-SE bands
        from isofield import make_point

        theta = 1.1
        pts = [
            make_point(S2, [0, 0, 1]),
            make_point(S2, [math.sin(theta), 0, math.cos(theta)]),
            make_point(S2, [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
            make_point(
                S2,
                math.cos(theta) * np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0])
                + math.sin(theta) * np.array([0.0, 0.0, 1.0]),
            ),
        ]
        assert distance(S2, pts[0], pts[1]) == pytest.approx(
            distance(S2, pts[2], pts[3]), abs=1e-12
        )
        model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1), 0.25 * np.eye(1)])
        ens = [
            simulate_spatial(model, pts, seed=s) for s in replicate_seeds(919, 6000)
        ]
        a = empirical_cov(ens, (0, 1), 0.0)
        b = empirical_cov(ens, (2, 3), 0.0)
        gap = abs(float(np.asarray(a.value)[0, 0]) - float(np.asarray(b.value)[0, 0]))
        band = 5 * (float(np.asarray(a.std_error)[0, 0]) + float(np.asarray(b.std_error)[0, 0]))
        assert gap <= band
        assert a.passed and b.passed
