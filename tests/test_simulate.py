import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofield import (
    GeometryError,
    ModelError,
    ModelFormatError,
    NumericError,
    ParameterError,
    PureSpatial,
    SeparableScalar,
    SeriesModel,
    TailEnvelope,
    UsageError,
    VectorMA1,
    distance,
    empirical_cov,
    eval_cov,
    jacobi_eval,
    mc_funk_hecke,
    parse_space,
    replicate_seeds,
    sample_uniform,
    save_realization,
    simulate_spatial,
    simulate_spatiotemporal,
    substream,
    validate_spatial,
    validate_spatiotemporal,
)
from isofield.cli import resolve_points
from isofield.spaces import a_constant, points_sha256, points_to_reals, sample_uniform_batch
from isofield.spectral import Violation, factor_coefficients
from tests.oracles import (
    exponential_path_cholesky,
    load_realization_values,
    ma1_path_per_time,
    psd_root_per_degree,
    random_psd,
    write_values_csv,
)

S2 = parse_space("sphere:2")


def fixed_points(n=4, seed=100):
    rng = np.random.default_rng(seed)
    return [sample_uniform(S2, rng) for _ in range(n)]


def small_matrix_model(seed=0):
    return SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2), 0.25 * np.eye(2)])


def factor_one(b):
    """factor_coefficients of the one-degree spatial model with coefficient b."""
    b = np.asarray(b, dtype=float)
    return factor_coefficients(SeriesModel(S2, len(b), [b]))


def root_of(b):
    report, roots = factor_one(b)
    assert report.valid, report.summary()
    return roots[0]


class TestMatrixSqrt:
    """Coefficient roots B^(1/2), as factor_coefficients gives them for a one-degree model."""

    def test_identity(self):
        assert np.array_equal(root_of(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(root_of(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b = random_psd(rng, 5)
            r = root_of(b)
            assert np.max(np.abs(r - r.T)) <= 1e-12
            scale = max(1.0, np.linalg.norm(b, 2))
            assert np.max(np.abs(r @ r - b)) <= 1e-10 * scale

    def test_rank_deficient_clipped(self):
        v = np.array([[1.0], [2.0]])
        b = v @ v.T  # rank one
        r = root_of(b)
        assert np.max(np.abs(r @ r - b)) <= 1e-10 * np.linalg.norm(b, 2)

    def test_indefinite_rejected_with_eigenvalue(self):
        report, roots = factor_one(np.diag([1.0, -0.2]))
        assert roots is None
        assert report.violations == [Violation(0, "spatial", "indefinite", pytest.approx(-0.2))]

    def test_asymmetric_rejected(self):
        report, roots = factor_one([[1.0, 0.5], [0.0, 1.0]])
        assert roots is None
        assert report.violations == [Violation(0, "spatial", "asymmetric", 0.5)]


class TestSimulateSpatial:
    def test_shapes_and_metadata(self):
        model = small_matrix_model()
        pts = fixed_points(5)
        real = simulate_spatial(model, pts, seed=7)
        assert real.values.shape == (5, 1, 2)
        assert np.all(np.isfinite(real.values))
        assert real.trunc == 2 and real.seed == 7
        assert real.latent_v.shape == (3, 1, 2)
        assert real.times == [0.0]

    def test_bit_identical_replay(self):
        model = small_matrix_model()
        pts = fixed_points(3)
        a = simulate_spatial(model, pts, trunc=2, seed=123)
        b = simulate_spatial(model, pts, trunc=2, seed=123)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent_u.coords, b.latent_u.coords)
        c = simulate_spatial(model, pts, trunc=2, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_degree_zero_only_is_constant_in_space(self):
        model = SeriesModel(S2, 2, [np.diag([1.0, 2.0])])
        real = simulate_spatial(model, fixed_points(6), seed=3)
        spread = real.values.max(axis=0) - real.values.min(axis=0)
        assert np.max(np.abs(spread)) <= 1e-12

    def test_invalid_model_rejected(self):
        bad = SeriesModel(S2, 2, [np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(ModelError):
            simulate_spatial(bad, fixed_points(2), seed=0)

    def test_trunc_out_of_range(self):
        with pytest.raises(UsageError):
            simulate_spatial(small_matrix_model(), fixed_points(2), trunc=9, seed=0)

    @pytest.mark.parametrize("trunc", [2.5, -0.5])
    def test_fractional_trunc_rejected(self, trunc):
        # int(trunc) once ran these as truncations 2 and 0
        with pytest.raises(ParameterError, match=f"truncation degree .* got {trunc}"):
            simulate_spatial(small_matrix_model(), fixed_points(2), trunc=trunc, seed=0)

    def test_octonionic_sampling_unsupported(self):
        space = parse_space("projO:16")
        model = SeriesModel(space, 1, [np.eye(1)])
        with pytest.raises(GeometryError):
            simulate_spatial(model, [], seed=0)

    def test_field_value_matches_latent_series(self):
        model = small_matrix_model()
        pts = fixed_points(3)
        real = simulate_spatial(model, pts, seed=5)
        for ip, pt in enumerate(pts):
            cosr = math.cos(distance(S2, pt, real.latent_u))
            want = sum(
                real.latent_v[n, 0] * jacobi_eval(n, S2.geom, cosr)
                for n in range(real.trunc + 1)
            )
            assert np.allclose(real.values[ip, 0], want, atol=1e-12)

    def test_ensemble_covariance_small(self):
        model = small_matrix_model()
        pts = fixed_points(2, seed=42)
        rho = distance(S2, pts[0], pts[1])
        seeds = replicate_seeds(2024, 4000)
        prods = np.empty((len(seeds), 2, 2))
        for r, s in enumerate(seeds):
            real = simulate_spatial(model, pts, seed=s)
            prods[r] = np.outer(real.values[0, 0], real.values[1, 0])
        est = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        want = eval_cov(model, rho)
        assert np.all(np.abs(est - want) <= 5 * se)

    def test_zero_mean_small(self):
        model = small_matrix_model()
        pts = fixed_points(1, seed=8)
        seeds = replicate_seeds(55, 3000)
        vals = np.array([simulate_spatial(model, pts, seed=s).values[0, 0] for s in seeds])
        se = vals.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        assert np.all(np.abs(vals.mean(axis=0)) <= 5 * se)

    def test_single_replicate_not_ergodic(self):
        # with only the degree-0 term, each replicate is spatially constant:
        # the spatial average equals V_0^2, whose spread across replicates
        # stays order one no matter how many points are averaged
        model = SeriesModel(S2, 1, [np.eye(1)])
        pts = fixed_points(50, seed=9)
        seeds = replicate_seeds(77, 300)
        spatial_means = []
        for s in seeds:
            real = simulate_spatial(model, pts, seed=s)
            spatial_means.append(float(np.mean(real.values[:, 0, 0] ** 2)))
        spatial_means = np.asarray(spatial_means)
        se = spatial_means.std(ddof=1) / math.sqrt(len(seeds))
        assert abs(spatial_means.mean() - 1.0) <= 5 * se  # unbiased for C(0)
        assert spatial_means.std(ddof=1) > 0.5  # but never concentrates


class TestSimulateSpatioTemporal:
    def test_pure_spatial_constant_in_time(self):
        model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)], PureSpatial())
        real = simulate_spatiotemporal(model, fixed_points(3), [0.0, 1.5, 4.0], seed=1)
        assert real.values.shape == (3, 3, 2)
        for i in (1, 2):
            assert np.array_equal(real.values[:, 0, :], real.values[:, i, :])

    def test_integer_domain_rejects_real_times(self):
        model = SeriesModel(S2, 1, [np.eye(1)], SeparableScalar("ar1", 0.5))
        with pytest.raises(UsageError):
            simulate_spatiotemporal(model, fixed_points(1), [0.0, 0.5], seed=0)

    def test_unsorted_times_rejected(self):
        model = SeriesModel(S2, 1, [np.eye(1)], PureSpatial())
        for times in ([1.0, 0.0], [0.0, 1.0, 1.0], [0.0, math.nan]):
            with pytest.raises(UsageError):
                simulate_spatiotemporal(model, fixed_points(1), times, seed=0)

    def test_replay_and_seed_sensitivity(self):
        model = SeriesModel(
            S2, 2, [np.eye(2), 0.4 * np.eye(2)], SeparableScalar("ar1", -0.3)
        )
        pts = fixed_points(2)
        a = simulate_spatiotemporal(model, pts, [0, 1, 2], seed=9)
        b = simulate_spatiotemporal(model, pts, [0, 1, 2], seed=9)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(
            a.values, simulate_spatiotemporal(model, pts, [0, 1, 2], seed=10).values
        )

    def test_ar1_lag_one_covariance(self):
        model = SeriesModel(
            S2, 1, [np.eye(1), 0.5 * np.eye(1)], SeparableScalar("ar1", 0.5)
        )
        pts = fixed_points(1, seed=11)
        seeds = replicate_seeds(303, 4000)
        prods = []
        for s in seeds:
            real = simulate_spatiotemporal(model, pts, [0, 1], seed=s)
            prods.append(real.values[0, 1, 0] * real.values[0, 0, 0])
        prods = np.asarray(prods)
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        want = 0.5 * eval_cov(model, 0.0, 0.0)[0, 0]
        assert abs(prods.mean() - want) <= 5 * se

    def test_ar1_gap_recursion_matches_stationary_correlation(self):
        # times with a gap: correlation across the gap must be phi^gap
        model = SeriesModel(S2, 1, [np.eye(1)], SeparableScalar("ar1", 0.8))
        pts = fixed_points(1, seed=12)
        seeds = replicate_seeds(404, 4000)
        prods = []
        for s in seeds:
            real = simulate_spatiotemporal(model, pts, [0, 3], seed=s)
            prods.append(real.values[0, 1, 0] * real.values[0, 0, 0])
        prods = np.asarray(prods)
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        want = 0.8**3 * eval_cov(model, 0.0, 0.0)[0, 0]
        assert abs(prods.mean() - want) <= 5 * se

    def test_exponential_kernel_real_times(self):
        model = SeriesModel(
            S2, 1, [np.eye(1)], SeparableScalar("exponential", 0.7)
        )
        pts = fixed_points(1, seed=13)
        times = [0.0, 0.8, 2.5]
        seeds = replicate_seeds(505, 4000)
        prods = []
        for s in seeds:
            real = simulate_spatiotemporal(model, pts, times, seed=s)
            prods.append(real.values[0, 1, 0] * real.values[0, 0, 0])
        prods = np.asarray(prods)
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        want = math.exp(-0.7 * 0.8) * eval_cov(model, 0.0, 0.0)[0, 0]
        assert abs(prods.mean() - want) <= 5 * se

    def test_ma1_vanishes_at_lag_two(self):
        rng = np.random.default_rng(14)
        phi = 0.5 * rng.standard_normal((2, 2))
        model = SeriesModel(
            S2, 2, [random_psd(rng, 2), random_psd(rng, 2)], VectorMA1(phi)
        )
        pts = fixed_points(1, seed=15)
        seeds = replicate_seeds(606, 4000)
        prods = np.empty((len(seeds), 2, 2))
        for r, s in enumerate(seeds):
            real = simulate_spatiotemporal(model, pts, [0, 1, 2], seed=s)
            prods[r] = np.outer(real.values[0, 2], real.values[0, 0])
        est = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        assert np.all(np.abs(est) <= 5 * se)

    def test_invalid_model_rejected(self):
        bad = SeriesModel(
            S2, 2, [np.diag([1.0, -0.4])], SeparableScalar("ar1", 0.2)
        )
        with pytest.raises(ModelError):
            simulate_spatiotemporal(bad, fixed_points(1), [0, 1], seed=0)

    def test_values_match_latent_series(self):
        rng = np.random.default_rng(16)
        model = SeriesModel(
            S2, 2, [random_psd(rng, 2) for _ in range(3)], VectorMA1(0.3 * np.eye(2))
        )
        pts = fixed_points(2, seed=17)
        real = simulate_spatiotemporal(model, pts, [0, 1], seed=18)
        for ip, pt in enumerate(pts):
            cosr = math.cos(distance(S2, pt, real.latent_u))
            for it in range(2):
                want = sum(
                    real.latent_v[n, it] * jacobi_eval(n, S2.geom, cosr)
                    for n in range(real.trunc + 1)
                )
                assert np.allclose(real.values[ip, it], want, atol=1e-12)


class TestOneSimulationPath:
    def test_spatial_model_on_lag_zero_grid_matches_simulate_spatial(self):
        model = small_matrix_model()
        pts = fixed_points(3)
        for seed in range(4):
            a = simulate_spatial(model, pts, seed=seed)
            b = simulate_spatiotemporal(model, pts, [0.0], seed=seed)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.latent_v, b.latent_v)
            assert np.array_equal(a.latent_u.coords, b.latent_u.coords)

    def test_spatial_model_rejects_other_time_grids(self):
        model = small_matrix_model()
        for times in ([0.0, 1.0], [1.0], [0.0, 0.0]):
            with pytest.raises(UsageError):
                simulate_spatiotemporal(model, fixed_points(2), times, seed=0)

    def test_pure_spatial_slices_equal_spatial_realization(self):
        coeffs = [random_psd(np.random.default_rng(41), 2) for _ in range(3)]
        spatial = SeriesModel(S2, 2, coeffs)
        constant = SeriesModel(S2, 2, coeffs, PureSpatial())
        pts = fixed_points(4, seed=42)
        for seed in range(8):
            want = simulate_spatial(spatial, pts, seed=seed)
            got = simulate_spatiotemporal(constant, pts, [0, 1, 2], seed=seed)
            assert np.array_equal(got.latent_u.coords, want.latent_u.coords)
            for i in range(3):
                assert np.array_equal(got.values[:, i], want.values[:, 0])
                assert np.array_equal(got.latent_v[:, i], want.latent_v[:, 0])

    def test_simulate_spatial_on_ma1_model_samples_lag_zero(self):
        # B_n(0) = Sigma_n + Phi Sigma_n Phi^T, not the innovation Sigma_n
        rng = np.random.default_rng(43)
        model = SeriesModel(
            S2, 2, [random_psd(rng, 2), random_psd(rng, 2)], VectorMA1(0.8 * np.eye(2))
        )
        pts = fixed_points(2, seed=44)
        ens = [simulate_spatial(model, pts, seed=s) for s in replicate_seeds(808, 4000)]
        assert empirical_cov(ens, (0, 1), 0.0).z_score <= 5
        assert empirical_cov(ens, (0, 0), 0.0).z_score <= 5

    def test_kernel_without_sampler_rejected(self):
        class ScaledKernel:
            domain = "integers"

            def coeff_at(self, n, t, coeffs):
                return 0.5 ** abs(t) * coeffs[n]

        model = SeriesModel(S2, 1, [np.eye(1)], ScaledKernel())
        with pytest.raises(UsageError):
            simulate_spatiotemporal(model, fixed_points(1), [0, 1], seed=0)


class RecordingKernel:
    """Wraps a kernel and records the root each degree's path is drawn with."""

    def __init__(self, inner):
        self.inner, self.roots = inner, []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sample_path(self, root, an, times, rng):
        self.roots.append(root.copy())
        return self.inner.sample_path(root, an, times, rng)


class TestStackedFactorisation:
    @pytest.mark.parametrize("kernel", ["spatial", "ar1", "exponential", "ma1"])
    @pytest.mark.parametrize("trunc", [None, 3])
    def test_roots_and_paths_equal_per_degree_matrix_sqrt(self, kernel, trunc):
        rng = np.random.default_rng(49)
        coeffs = [random_psd(rng, 3, 0.7**n) for n in range(6)]
        v = rng.standard_normal((3, 1))
        coeffs[2] = v @ v.T  # rank one
        inner = {"spatial": PureSpatial(), "ar1": SeparableScalar("ar1", 0.6),
                 "exponential": SeparableScalar("exponential", 0.9),
                 "ma1": VectorMA1(0.5 * random_psd(rng, 3))}[kernel]
        times = [0.0] if kernel == "spatial" else [-1.0, 0.0, 2.0]
        if kernel == "spatial":
            model = SeriesModel(S2, 3, coeffs)
            model.kernel = RecordingKernel(model.kernel)
        else:
            model = SeriesModel(S2, 3, coeffs, RecordingKernel(inner))
        real = simulate_spatiotemporal(model, fixed_points(3), times, trunc, seed=17)
        degrees = range(real.trunc + 1)
        assert len(model.kernel.roots) == len(degrees)
        for n in degrees:
            root = psd_root_per_degree(coeffs[n])
            assert np.array_equal(model.kernel.roots[n], root)
            want = inner.sample_path(root, a_constant(S2, n), times, substream(17, 1, n))
            assert np.array_equal(real.latent_v[n], want)

    def test_finite_coefficients_near_overflow(self):
        # 0.5 * (B + B^T) overflows to inf for these finite entries
        model = SeriesModel(S2, 2, [np.diag([1e308, 1e308])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_spatial(model).valid
            real = simulate_spatial(model, fixed_points(3), seed=2)
            root = psd_root_per_degree(model.coeffs[0])
        assert np.all(np.isfinite(real.values)) and np.all(np.abs(real.values) > 1e150)
        assert np.allclose(root, 1e154 * np.eye(2), rtol=1e-15, atol=0.0)

    def test_non_finite_field_values_raise(self):
        class OverflowingKernel(RecordingKernel):
            def sample_path(self, root, an, times, rng):
                return np.full((len(times), root.shape[0]), np.inf)

        model = SeriesModel(S2, 1, [np.eye(1)], OverflowingKernel(PureSpatial()))
        with pytest.raises(NumericError, match="non-finite"):
            simulate_spatiotemporal(model, fixed_points(2), [0.0], seed=0)


class TestMarkovSampler:
    @pytest.mark.parametrize("grid", ["three", "sorted200"])
    def test_exponential_path_matches_cholesky_oracle(self, grid):
        rng = np.random.default_rng(47)
        times = [0.0, 0.8, 2.5] if grid == "three" else np.sort(rng.uniform(0.0, 40.0, 200))
        kernel = SeparableScalar("exponential", 0.7)
        root = psd_root_per_degree(random_psd(rng, 3))
        for seed in range(5):
            got = kernel.sample_path(root, 1.3, times, substream(seed, 1, 2))
            want = exponential_path_cholesky(0.7, root, 1.3, times, substream(seed, 1, 2))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_exponential_near_duplicate_times(self):
        model = SeriesModel(
            S2, 2, [np.eye(2), 0.5 * np.eye(2)], SeparableScalar("exponential", 1.0)
        )
        real = simulate_spatiotemporal(model, fixed_points(3), [0.0, 1e-17, 1.0], seed=5)
        assert np.array_equal(real.values[:, 0], real.values[:, 1])
        assert not np.array_equal(real.values[:, 1], real.values[:, 2])


def _rotated(diag):
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag(diag) @ rot.T


GATE_COEFFS = {
    "psd": ([np.eye(2), random_psd(np.random.default_rng(48), 2), 0.3 * np.eye(2)], True),
    "rank_deficient": ([np.eye(2), np.ones((2, 2)), _rotated([0.5, 0.0])], True),
    "asymmetric": ([np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]), 0.3 * np.eye(2)], False),
    "indefinite_above_trunc": ([np.eye(2), 0.5 * np.eye(2), _rotated([1.0, -0.5])], False),
}
GATE_KERNELS = {
    "pure_spatial": PureSpatial(),
    "ar1": SeparableScalar("ar1", -0.6),
    "exponential": SeparableScalar("exponential", 0.7),
    "ma1": VectorMA1(0.6 * np.array([[0.6, -0.8], [0.8, 0.6]])),  # ||Phi|| = 0.6
}


class TestBuiltInKernelGate:
    """validate_spatial, the simulation gate, agrees with the block-Gram probe
    of validate_spatiotemporal on each built-in kernel."""

    @pytest.mark.parametrize("coeffs", sorted(GATE_COEFFS))
    @pytest.mark.parametrize("kernel", sorted(GATE_KERNELS))
    def test_stored_coefficients_decide_validity(self, kernel, coeffs):
        mats, valid = GATE_COEFFS[coeffs]
        model = SeriesModel(S2, 2, mats, GATE_KERNELS[kernel])
        times = [0.0, 1.0, 2.0]
        probe = sorted({t1 - t2 for t1 in times for t2 in times})
        assert validate_spatial(model).valid is valid
        assert validate_spatiotemporal(model, probe).valid is valid
        if valid:
            simulate_spatiotemporal(model, fixed_points(2), times, trunc=1, seed=0)
        else:
            with pytest.raises(ModelError):
                simulate_spatiotemporal(model, fixed_points(2), times, trunc=1, seed=0)


class TestPointArrays:
    @pytest.mark.parametrize("label", ["sphere:2", "projR:3", "projC:4", "projH:8"])
    def test_stacked_array_and_point_list_bit_identical(self, label):
        space = parse_space(label)
        rng = np.random.default_rng(45)
        model = SeriesModel(
            space, 2, [random_psd(rng, 2), random_psd(rng, 2)], VectorMA1(0.3 * np.eye(2))
        )
        pts = [sample_uniform(space, rng) for _ in range(5)]
        stacked = np.stack([p.coords for p in pts])
        a = simulate_spatiotemporal(model, pts, [0, 1], seed=6)
        b = simulate_spatiotemporal(model, stacked, [0, 1], seed=6)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent_v, b.latent_v)
        assert np.array_equal(a.points, stacked) and np.array_equal(b.points, stacked)

    @pytest.mark.parametrize("defect", ["shape", "flat", "complex", "non-finite", "non-unit"])
    def test_bad_arrays_rejected(self, defect):
        good = np.stack([p.coords for p in fixed_points(3)])
        bad = {
            "shape": good[:, :2],
            "flat": good.ravel(),
            "complex": good.astype(complex),
            "non-finite": np.where(np.arange(3)[:, None] == 1, np.nan, good),
            "non-unit": good * np.array([[1.0], [2.0], [1.0]]),
        }[defect]
        with pytest.raises(UsageError):
            simulate_spatial(small_matrix_model(), bad, seed=0)

    def test_point_of_another_space_rejected(self):
        model = small_matrix_model()
        stray = sample_uniform(parse_space("sphere:3"), np.random.default_rng(46))
        with pytest.raises(UsageError):
            simulate_spatial(model, fixed_points(2) + [stray], seed=0)
        with pytest.raises(UsageError):
            simulate_spatial(model, [stray] + fixed_points(2), seed=0)


class TestRealizationIO:
    def test_values_round_trip_exactly(self, tmp_path):
        from isofield import save_realization

        model = SeriesModel(
            S2, 2, [np.eye(2), 0.5 * np.eye(2)], SeparableScalar("ar1", 0.3)
        )
        real = simulate_spatiotemporal(model, fixed_points(3), [0, 1, 2], seed=21)
        csv_path, meta_path = save_realization(real, tmp_path / "real.csv")
        values = load_realization_values(csv_path)
        assert np.array_equal(values, real.values)
        import json

        meta = json.loads(meta_path.read_text())
        assert meta["seed"] == 21 and meta["trunc"] == 1
        assert meta["model_hash"] == real.model_hash
        assert len(meta["latent_u"]) == 3

    def test_library_save_keeps_coordinates(self, tmp_path):
        model = small_matrix_model()
        real = simulate_spatial(model, fixed_points(4), seed=8)
        _, meta_path = save_realization(real, tmp_path / "lib.csv")
        meta = json.loads(meta_path.read_text())
        assert meta["format_version"] == 2 and "points_spec" not in meta
        assert meta["point_count"] == 4
        assert np.array_equal(np.array(meta["points"]), points_to_reals(real.points))
        want = hashlib.sha256(np.array(meta["points"], dtype="<f8").tobytes()).hexdigest()
        assert meta["points_sha256"] == want == points_sha256(real.points)

    @pytest.mark.parametrize("case", ["spatial_m1", "exponential_m3_projC", "ma1_m3",
                                      "signed_zeros_and_extremes"])
    def test_values_csv_matches_csv_writer_oracle(self, case, tmp_path):
        rng = np.random.default_rng(52)
        if case == "spatial_m1":
            model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)])
            points, times = fixed_points(5), [0.0]
        elif case == "ma1_m3":
            model = SeriesModel(S2, 3, [random_psd(rng, 3), random_psd(rng, 3)],
                                VectorMA1(0.4 * np.eye(3)))
            points, times = fixed_points(4), [-3.0, -1.0, 0.0, 2.0]
        else:
            space = parse_space("projC:4")
            model = SeriesModel(space, 3, [random_psd(rng, 3), random_psd(rng, 3)],
                                SeparableScalar("exponential", 0.7))
            points = sample_uniform_batch(space, 6, rng)
            times = [-2.5, -0.0, 0.25, 3.0]
        real = simulate_spatiotemporal(model, points, times, seed=13)
        if case == "signed_zeros_and_extremes":
            special = np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-7, 0.1])
            values = np.resize(special, real.values.size).reshape(real.values.shape)
            real = dataclasses.replace(real, values=values)
        csv_path, _ = save_realization(real, tmp_path / "v.csv")
        write_values_csv(tmp_path / "oracle.csv", real.values, real.times)
        assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class WrappingKernel:
    """A user-defined kernel: domain, coeff_at and sample_path, and no file form."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def domain(self):
        return self.inner.domain

    def coeff_at(self, n, t, coeffs):
        return self.inner.coeff_at(n, t, coeffs)

    def sample_path(self, root, an, times, rng):
        return self.inner.sample_path(root, an, times, rng)


def test_user_defined_kernel_simulates_but_cannot_be_saved(tmp_path):
    inner = SeparableScalar("ar1", 0.5)
    coeffs = [np.eye(2), 0.5 * np.eye(2)]
    model = SeriesModel(S2, 2, coeffs, WrappingKernel(inner))
    times = [0.0, 1.0, 2.0]
    reals = [simulate_spatiotemporal(model, fixed_points(3), times, seed=s) for s in (1, 2, 3)]
    want = simulate_spatiotemporal(SeriesModel(S2, 2, coeffs, inner),
                                   fixed_points(3), times, seed=1)
    assert np.array_equal(reals[0].values, want.values)
    assert empirical_cov(reals, (0, 1), 1.0).replicates == 3  # one model object: no hash
    with pytest.raises(ModelFormatError, match="WrappingKernel"):
        save_realization(reals[0], tmp_path / "user.csv")
    assert not (tmp_path / "user.csv").exists()


MEMO_KERNELS = {
    "spatial": None,
    "ar1": lambda: SeparableScalar("ar1", 0.6),
    "exponential": lambda: SeparableScalar("exponential", 0.9),
    "ma1": lambda: VectorMA1([[0.4, 0.1], [-0.2, 0.3]]),
    "user": lambda: WrappingKernel(SeparableScalar("exponential", 0.4)),
}


def memo_model(kernel):
    rng = np.random.default_rng(53)
    coeffs = [random_psd(rng, 2, 0.6**n) for n in range(4)]
    if MEMO_KERNELS[kernel] is None:
        return SeriesModel(S2, 2, coeffs)
    return SeriesModel(S2, 2, coeffs, MEMO_KERNELS[kernel]())


def memo_simulate(model, seed):
    times = [0.0] if model.domain == "zero" else [0.0, 1.0, 3.0]
    trunc = min(2, model.max_degree)
    return simulate_spatiotemporal(model, fixed_points(3), times, trunc=trunc, seed=seed)


class TestModelMemo:
    """A model's lag-0 analysis is computed once per model content and reused."""

    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_repeated_calls_equal_fresh_models(self, kernel):
        model = memo_model(kernel)
        for seed in (5, 5, 6):
            got, want = memo_simulate(model, seed), memo_simulate(memo_model(kernel), seed)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.latent_v, want.latent_v)
            assert np.array_equal(got.latent_u.coords, want.latent_u.coords)

    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_in_place_coefficient_edit_is_seen(self, kernel):
        model = memo_model(kernel)
        memo_simulate(model, 0)
        model.coeffs[2] = np.diag([1.0, -0.5])
        with pytest.raises(ModelError, match="degree 2 lag spatial: indefinite"):
            memo_simulate(model, 0)
        assert [v.degree for v in validate_spatial(model).violations] == [2]

    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_tail_reassignment_is_seen(self, kernel):
        model = memo_model(kernel)
        memo_simulate(model, 0)
        model.tail = TailEnvelope(1e308, 0.999999)
        with pytest.raises(ModelError, match="degree 3 lag spatial: divergent"):
            memo_simulate(model, 0)
        assert not validate_spatial(model).valid
        with pytest.raises(ModelError, match="divergent"):
            eval_cov(model, 0.5)

    def test_kernel_swap_is_seen(self):
        # each B_n(0) = 2.44 Sigma_n under the moving average, and the sum overflows
        model = SeriesModel(S2, 2, [4e307 * np.eye(2)] * 2, SeparableScalar("ar1", 0.5))
        memo_simulate(model, 0)
        assert validate_spatial(model).valid
        model.kernel = VectorMA1(1.2 * np.eye(2))
        with pytest.raises(ModelError, match="degree 1 lag spatial: divergent"):
            memo_simulate(model, 0)
        assert not validate_spatial(model).valid
        model.kernel = SeparableScalar("exponential", 0.9)
        fresh = SeriesModel(S2, 2, model.coeffs.copy(), SeparableScalar("exponential", 0.9))
        assert np.array_equal(memo_simulate(model, 1).values, memo_simulate(fresh, 1).values)

    def test_returned_report_and_roots_cannot_change_the_memo(self):
        model = memo_model("spatial")
        validate_spatial(model).violations.append("not a violation")
        assert validate_spatial(model).violations == []

        class RootWritingKernel(WrappingKernel):
            def sample_path(self, root, an, times, rng):
                root *= 2.0
                return self.inner.sample_path(root, an, times, rng)

        model = SeriesModel(S2, 2, model.coeffs, RootWritingKernel(PureSpatial()))
        with pytest.raises(ValueError, match="read-only"):
            memo_simulate(model, 0)

    def test_ma1_matrix_is_a_read_only_copy(self):
        phi = np.array([[0.4, 0.1], [-0.2, 0.3]])
        kernel = VectorMA1(phi)
        assert not kernel.phi.flags.writeable
        assert not np.shares_memory(kernel.phi, phi)
        phi[0, 0] = 5.0
        assert kernel.phi[0, 0] == 0.4
        with pytest.raises(ValueError, match="read-only"):
            kernel.phi[0, 0] = 1.0


def test_substream_registry_streams_are_distinct():
    """The first 8 draws of every stream the simulate module's docstring lists are
    distinct across streams and seeds, and random:K points use key (2,)."""
    draws = []
    for seed in (0, 1, 4242, 2**40 + 3):
        gens = [substream(seed, 0), substream(seed, 2), substream(seed, 3),
                np.random.default_rng(np.random.SeedSequence(seed))]
        gens += [substream(seed, 1, n) for n in range(4)]
        for rng in gens:
            draws += [int(x) for x in rng.bit_generator.random_raw(8)]
        draws += replicate_seeds(seed, 8)
        assert np.array_equal(resolve_points(S2, "random:5", seed),
                              sample_uniform_batch(S2, 5, substream(seed, 2)))
    assert len(draws) == 4 * 9 * 8
    assert len(set(draws)) == len(draws)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_library_seed_must_be_a_nonnegative_integer(seed):
    # numpy's ValueError and TypeError named no seed, and True ran as seed 1
    x = sample_uniform(S2, np.random.default_rng(0))
    with pytest.raises(UsageError, match=f"seed {seed} must be a non-negative integer"):
        simulate_spatial(small_matrix_model(), fixed_points(2), seed=seed)
    with pytest.raises(UsageError, match=f"seed {seed} must be a non-negative integer"):
        mc_funk_hecke(S2, 1, 1, x, x, replicates=10, seed=seed)
    with pytest.raises(UsageError, match=f"master seed {seed} must be a non-negative integer"):
        replicate_seeds(seed, 3)


def test_replicate_count_must_be_a_nonnegative_integer():
    with pytest.raises(UsageError, match="replicate count -1 must be a non-negative integer"):
        replicate_seeds(0, -1)
    assert replicate_seeds(0, 0) == []


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 7]
REGISTRY_KEYS = [(), (0,), (2,), (3,)] + [(1, n) for n in range(101)]


def _assert_numpy_stream(seed, key):
    got = substream(seed, *key)
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert got.bit_generator.state == want.bit_generator.state, (seed, key)
    assert np.array_equal(got.standard_normal(8), want.standard_normal(8)), (seed, key)
    # children of its seed sequence are numpy's children too
    (child,), (want_child,) = (g.bit_generator.seed_seq.spawn(1) for g in (got, want))
    assert child.generate_state(4).tolist() == want_child.generate_state(4).tolist()


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_substream_is_numpys_spawn_key_stream(seed):
    for key in REGISTRY_KEYS:
        _assert_numpy_stream(seed, key)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**160), key=st.sampled_from(REGISTRY_KEYS))
def test_substream_is_numpys_spawn_key_stream_on_generated_seeds(seed, key):
    _assert_numpy_stream(seed, key)


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_substream_seed_and_key_must_be_nonnegative_integers(bad):
    with pytest.raises(UsageError, match=f"seed {bad} must be a non-negative integer"):
        substream(bad, 1, 0)
    with pytest.raises(UsageError, match=f"spawn key {bad} must be a non-negative integer"):
        substream(0, 1, bad)


@pytest.mark.parametrize("times", [(0, 1, 2), (0, 2, 5), (-3, 4)])
def test_ma1_sampler_equals_one_draw_per_time(times):
    rng = np.random.default_rng(31)
    phi = rng.uniform(-0.5, 0.5, (2, 2))
    kernel = VectorMA1(phi)
    root = psd_root_per_degree(random_psd(rng, 2))
    for seed in range(200):
        got = kernel.sample_path(root, 0.7, list(times), substream(seed, 1, 1))
        want = ma1_path_per_time(phi, root, 0.7, times, substream(seed, 1, 1))
        assert np.array_equal(got, want), seed
