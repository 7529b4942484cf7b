import copy
import dataclasses
import hashlib
import json
import math
import pickle
import tracemalloc
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
    jacobi_all,
    jacobi_eval,
    make_point,
    mc_funk_hecke,
    parse_space,
    replicate_seeds,
    sample_uniform_batch,
    save_realization,
    simulate_spatial,
    simulate_spatiotemporal,
    substream,
    truncation_bound,
    validate_spatial,
    validate_spatiotemporal,
)
from isofield.cli import resolve_points
from isofield.spaces import a_constant, cos_distance_batch, points_sha256, points_to_reals
from isofield import spectral
from isofield import _streams
from isofield._streams import _generators, _seed_words
from isofield.jacobi import _SERIES_BLOCK
from isofield.simulate import _WRITE_CHUNK, _words
from isofield.spectral import SPATIAL, Violation, factor_coefficients
from tests.oracles import (
    exponential_path_cholesky,
    load_realization_values,
    ma1_path_per_time,
    psd_root_per_degree,
    random_psd,
    simulate_reference,
    write_values_csv,
)

S2 = parse_space("sphere:2")


def fixed_points(n=4, seed=100):
    rng = np.random.default_rng(seed)
    return list(sample_uniform_batch(S2, n, rng))


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
        assert np.array_equal(a.latent_u, b.latent_u)
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

    @pytest.mark.parametrize("trunc", [True, np.True_])
    def test_bool_trunc_rejected(self, trunc):
        # True once ran as truncation 1
        with pytest.raises(ParameterError, match="truncation degree must be a nonnegative"):
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

    @pytest.mark.parametrize("kernel", [SeparableScalar("exponential", 0.7),
                                        SeparableScalar("ar1", -0.6)])
    def test_times_whose_gap_overflows_are_independent_draws(self, kernel):
        # the gap 1e308 - (-1e308) reads inf, across which r is 0.0 as across the finite
        # gap 1e308: the second slice is a fresh draw (it once raised "lag inf is not finite")
        assert kernel.correlation(1e308) == 0.0
        model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)], kernel)
        pts = fixed_points(3, seed=16)
        real = simulate_spatiotemporal(model, pts, [-1e308, 1e308], seed=8)
        assert real.times == [-1e308, 1e308] and np.isfinite(real.values).all()
        finite_gap = simulate_spatiotemporal(model, pts, [0.0, 1e308], seed=8)
        assert np.array_equal(real.values, finite_gap.values)
        first = simulate_spatiotemporal(model, pts, [-1e308], seed=8)
        assert np.array_equal(real.values[:, :1], first.values)

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
            assert np.array_equal(a.latent_u, b.latent_u)

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
            assert np.array_equal(got.latent_u, want.latent_u)
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
        with pytest.raises(UsageError, match="unsupported temporal kernel ScaledKernel"):
            simulate_spatiotemporal(model, fixed_points(1), [0, 1], seed=0)

        class PerDegreeKernel(ScaledKernel):  # the per-degree hook is not read
            def sample_path(self, root, an, times, rng):
                return np.zeros((len(times), root.shape[0]))

        model = SeriesModel(S2, 1, [np.eye(1)], PerDegreeKernel())
        with pytest.raises(UsageError, match="unsupported temporal kernel PerDegreeKernel"):
            simulate_spatiotemporal(model, fixed_points(1), [0, 1], seed=0)


def degree_path(kernel, root, an, times, rng):
    """The path of one degree: kernel.sample_paths on the one-degree stacks."""
    return kernel.sample_paths(root[None], np.array([an]), times, [rng])[0]


class RecordingKernel:
    """Wraps a kernel and records each call's roots, a_n and stream count."""

    def __init__(self, inner):
        self.inner, self.roots, self.an, self.streams = inner, [], [], []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sample_paths(self, roots, an, times, rngs):
        self.roots.append(roots.copy())
        self.an.append(an.copy())
        self.streams.append(len(rngs))
        return self.inner.sample_paths(roots, an, times, rngs)


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
        model = SeriesModel(S2, 3, coeffs, RecordingKernel(SPATIAL if kernel == "spatial"
                                                           else inner))
        real = simulate_spatiotemporal(model, fixed_points(3), times, trunc, seed=17)
        degrees = range(real.trunc + 1)
        assert len(model.kernel.roots) == 1  # one hook call draws every degree
        assert model.kernel.roots[0].shape == (len(degrees), 3, 3)
        assert model.kernel.streams == [len(degrees)]
        for n in degrees:
            root = psd_root_per_degree(coeffs[n])
            assert np.array_equal(model.kernel.roots[0][n], root)
            assert model.kernel.an[0][n] == a_constant(S2, n)
            want = degree_path(inner, root, a_constant(S2, n), times, substream(17, 1, n))
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
            def sample_paths(self, roots, an, times, rngs):
                return np.full((len(roots), len(times), roots.shape[-1]), np.inf)

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
            got = degree_path(kernel, root, 1.3, times, substream(seed, 1, 2))
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
        pts = [make_point(space, r) for r in sample_uniform_batch(space, 5, rng)]
        stacked = np.stack([p.coords for p in pts])
        a = simulate_spatiotemporal(model, pts, [0, 1], seed=6)
        b = simulate_spatiotemporal(model, stacked, [0, 1], seed=6)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent_v, b.latent_v)
        assert np.array_equal(a.points, stacked) and np.array_equal(b.points, stacked)

    @pytest.mark.parametrize("defect", ["shape", "flat", "complex", "non-finite", "non-unit"])
    def test_bad_arrays_rejected(self, defect):
        good = np.stack(fixed_points(3))
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
        sphere3 = parse_space("sphere:3")
        stray = make_point(sphere3, sample_uniform_batch(sphere3, 1, np.random.default_rng(46))[0])
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

    @pytest.mark.parametrize("long_points", [False, True])
    def test_table_over_several_chunks_matches_csv_writer_oracle(self, long_points, tmp_path):
        # two full chunks and a partial one of whole points (6 values each), or points of
        # _WRITE_CHUNK + 2 values each, one point per chunk
        model = SeriesModel(S2, 2, [np.eye(2), random_psd(np.random.default_rng(3), 2)],
                            SeparableScalar("exponential", 0.7))
        points = sample_uniform_batch(S2, 2 * _WRITE_CHUNK // 6 + 1, np.random.default_rng(4))
        real = simulate_spatiotemporal(model, points, [-1.0, 0.0, 2.5], seed=5)
        if long_points:
            times = [0.25 * k for k in range(_WRITE_CHUNK // 2 + 1)]
            values = np.random.default_rng(6).standard_normal((3, len(times), 2))
            real = dataclasses.replace(real, times=times, values=values)
        assert real.values.size > 2 * _WRITE_CHUNK and real.values.size % _WRITE_CHUNK
        csv_path, _ = save_realization(real, tmp_path / "v.csv", points_spec="random")
        write_values_csv(tmp_path / "oracle.csv", real.values, real.times)
        assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_memory_does_not_grow_with_the_table(self, tmp_path):
        # rows are formatted _WRITE_CHUNK values at a time: past the first chunk the traced
        # peak grows by the sidecar's point digest only (about 5 B a value here), where a
        # whole-table template held about 89 B a value
        model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)],
                            SeparableScalar("exponential", 1.0))
        peaks = []
        for count in (5_000, 30_000):
            points = sample_uniform_batch(S2, count, np.random.default_rng(count))
            real = simulate_spatiotemporal(model, points, [0.0, 1.0], seed=1)
            tracemalloc.start()
            try:
                save_realization(real, tmp_path / "v.csv", points_spec=f"random:{count}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 24 * 4 * 25_000  # three float64s per added value


class WrappingKernel:
    """A user-defined kernel: domain, coeff_at and sample_paths, and no file form."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def domain(self):
        return self.inner.domain

    def coeff_at(self, n, t, coeffs):
        return self.inner.coeff_at(n, t, coeffs)

    def sample_paths(self, roots, an, times, rngs):
        return self.inner.sample_paths(roots, an, times, rngs)


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
    """A model is a value: its lag-0 analysis and each a_n are computed once per model
    object, and an edited model is a new object, built by dataclasses.replace."""

    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_repeated_calls_equal_fresh_models(self, kernel):
        model = memo_model(kernel)
        for seed in (5, 5, 6):
            got, want = memo_simulate(model, seed), memo_simulate(memo_model(kernel), seed)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.latent_v, want.latent_v)
            assert np.array_equal(got.latent_u, want.latent_u)

    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_in_place_coefficient_edit_is_seen(self, kernel):
        # an in-place edit raises; the edit is seen through a replaced model
        model = memo_model(kernel)
        want = memo_simulate(model, 0)
        with pytest.raises(ValueError, match="read-only"):
            model.coeffs[2] = np.diag([1.0, -0.5])
        coeffs = model.coeffs.copy()
        coeffs[2] = np.diag([1.0, -0.5])
        edited = dataclasses.replace(model, coeffs=coeffs)
        with pytest.raises(ModelError, match="degree 2 lag spatial: indefinite"):
            memo_simulate(edited, 0)
        fresh = SeriesModel(S2, 2, coeffs, model.kernel)
        assert validate_spatial(edited).as_dict() == validate_spatial(fresh).as_dict()
        assert [v.degree for v in validate_spatial(edited).violations] == [2]
        assert np.array_equal(memo_simulate(model, 0).values, want.values)

    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_tail_reassignment_is_seen(self, kernel):
        model = memo_model(kernel)
        memo_simulate(model, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.tail = TailEnvelope(1e308, 0.999999)
        edited = dataclasses.replace(model, tail=TailEnvelope(1e308, 0.999999))
        with pytest.raises(ModelError, match="degree 3 lag spatial: divergent"):
            memo_simulate(edited, 0)
        fresh = SeriesModel(S2, 2, model.coeffs, model.kernel, TailEnvelope(1e308, 0.999999))
        assert validate_spatial(edited).as_dict() == validate_spatial(fresh).as_dict()
        assert not validate_spatial(edited).valid
        with pytest.raises(ModelError, match="divergent"):
            eval_cov(edited, 0.5)
        assert model.tail is None and validate_spatial(model).valid

    def test_kernel_swap_is_seen(self):
        # each B_n(0) = 2.44 Sigma_n under the moving average, and the sum overflows
        model = SeriesModel(S2, 2, [4e307 * np.eye(2)] * 2, SeparableScalar("ar1", 0.5))
        memo_simulate(model, 0)
        assert validate_spatial(model).valid
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.kernel = VectorMA1(1.2 * np.eye(2))
        swapped = dataclasses.replace(model, kernel=VectorMA1(1.2 * np.eye(2)))
        with pytest.raises(ModelError, match="degree 1 lag spatial: divergent"):
            memo_simulate(swapped, 0)
        assert not validate_spatial(swapped).valid
        assert validate_spatial(model).valid
        swapped = dataclasses.replace(swapped, kernel=SeparableScalar("exponential", 0.9))
        fresh = SeriesModel(S2, 2, model.coeffs.copy(), SeparableScalar("exponential", 0.9))
        assert np.array_equal(memo_simulate(swapped, 1).values, memo_simulate(fresh, 1).values)

    def test_fields_coefficients_and_constant_views_are_read_only(self):
        given = [np.eye(2), 0.5 * np.eye(2)]
        for kernel in (SPATIAL, PureSpatial(), SeparableScalar("ar1", 0.5)):
            model = SeriesModel(S2, 2, given, kernel)
            assert not model.coeffs.flags.writeable
            assert not any(np.shares_memory(model.coeffs, b) for b in given)
            for name, value in (("space", parse_space("projR:2")), ("m", 3), ("tail", None),
                                ("coeffs", given), ("kernel", SPATIAL)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(model, name, value)
            with pytest.raises(ValueError, match="read-only"):
                model.coeffs[1, 0, 0] = 2.0
            if kernel.kind == "pure_spatial":  # coeff_at returns a view of coeffs
                with pytest.raises(ValueError, match="read-only"):
                    model.coeff_at(1)[0, 0] = 2.0
            assert model.coeffs[1, 0, 0] == 0.5 and given[1][0, 0] == 0.5

    def test_analysis_and_a_n_computed_once_per_object(self, monkeypatch):
        factored, scaled = [], []
        factor, a_n = spectral.factor_coefficients, spectral.a_constant
        monkeypatch.setattr(spectral, "factor_coefficients",
                            lambda model: factored.append(model) or factor(model))
        monkeypatch.setattr(spectral, "a_constant",
                            lambda space, n: scaled.append(n) or a_n(space, n))
        model = memo_model("exponential")
        for seed in (1, 2, 3):
            memo_simulate(model, seed)
            validate_spatial(model)
            validate_spatiotemporal(model, [0.0, 1.0])
            eval_cov(model, [0.5, 1.0], [0.0, 0.5])
            truncation_bound(model, 1)
        assert factored == [model] and scaled == [0, 1, 2, 3]
        memo_simulate(dataclasses.replace(model), 1)  # a new object, analysed anew
        assert len(factored) == 2 and scaled == [0, 1, 2, 3] * 2

    def test_returned_report_and_roots_cannot_change_the_memo(self):
        model = memo_model("spatial")
        validate_spatial(model).violations.append("not a violation")
        assert validate_spatial(model).violations == []

        class RootWritingKernel(WrappingKernel):
            def sample_paths(self, roots, an, times, rngs):
                roots *= 2.0
                return self.inner.sample_paths(roots, an, times, rngs)

        class ScaleWritingKernel(WrappingKernel):
            def sample_paths(self, roots, an, times, rngs):
                an *= 2.0
                return self.inner.sample_paths(roots, an, times, rngs)

        for kernel in (RootWritingKernel, ScaleWritingKernel):
            model = SeriesModel(S2, 2, model.coeffs, kernel(PureSpatial()))
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
    x = sample_uniform_batch(S2, 1, np.random.default_rng(0))[0]
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


def _assert_stream_is_numpys(got, seed, key):
    """got is np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)) in state,
    draws, spawned children and every other generate_state request of its seed sequence.
    The seed sequence is read as bit_generator._seed_seq, which numpy < 1.25 names only so."""
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert got.bit_generator.state == want.bit_generator.state, (seed, key)
    assert np.array_equal(got.standard_normal(8), want.standard_normal(8)), (seed, key)
    seq, want_seq = got.bit_generator._seed_seq, want.bit_generator._seed_seq
    for request in [(8,), (3, np.uint64), (4, np.uint64), (4, np.uint32)]:
        state, want_state = seq.generate_state(*request), want_seq.generate_state(*request)
        assert state.dtype == want_state.dtype, request
        assert state.tolist() == want_state.tolist(), (seed, key, request)
    # the children's entropy and spawn_key are numpy's words in another split, as before
    for child, want_child in zip(seq.spawn(2), want_seq.spawn(2)):
        assert child.generate_state(8).tolist() == want_child.generate_state(8).tolist()
        assert np.random.default_rng(child).bit_generator.state == \
            np.random.default_rng(want_child).bit_generator.state, (seed, key)
    if hasattr(got, "spawn"):  # Generator.spawn is numpy >= 1.25
        (child,), (want_child,) = got.spawn(1), want.spawn(1)
        assert child.bit_generator.state == want_child.bit_generator.state, (seed, key)
        assert child.integers(2**63, size=4).tolist() == want_child.integers(2**63, size=4).tolist()


def _assert_numpy_stream(seed, key):
    _assert_stream_is_numpys(substream(seed, *key), seed, key)


def _entropy(seed, key):
    """The entropy words numpy assembles for SeedSequence(seed, spawn_key=key), as bytes."""
    return _words(seed, 4 if key else 1) + b"".join(_words(k) for k in key)


# word-count edges of a seed: 1, 2, 3, 4, 5 and 7 words
STREAM_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200 + 3]
_STREAM_KEYS = st.one_of(st.just(()), st.tuples(st.integers(0, 3)),
                         st.tuples(st.just(1), st.integers(0, 2**70)),
                         st.tuples(st.integers(0, 2**40), st.integers(2**32, 2**64)))


@pytest.mark.parametrize("size", range(1, 71))
def test_batch_of_streams_is_numpys(size):
    """A batch of any size from 1 to 70, mixing seeds of every word count and keys past 2**32,
    builds numpy's streams in order."""
    pairs = [(STREAM_EDGE_SEEDS[(size + i) % 7], (1, i + 2**32 * (i % 3))) for i in range(size)]
    pairs[0] = (pairs[0][0], (0,))  # the latent point's key leads a simulate_* batch
    for got, (seed, key) in zip(_generators([_entropy(*pair) for pair in pairs]), pairs):
        _assert_stream_is_numpys(got, seed, key)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.one_of(st.sampled_from(STREAM_EDGE_SEEDS),
                                          st.integers(0, 2**256)), _STREAM_KEYS),
                      min_size=1, max_size=70))
def test_batch_of_streams_is_numpys_on_generated_seeds_and_keys(pairs):
    for got, (seed, key) in zip(_generators([_entropy(*pair) for pair in pairs]), pairs):
        _assert_stream_is_numpys(got, seed, key)


def test_stream_seed_words_are_numpys_in_c_order():
    seqs = [np.random.SeedSequence(seed, spawn_key=(1, 2**33 * n))
            for n, seed in enumerate(STREAM_EDGE_SEEDS)]
    words = _seed_words(np.array([seq.pool for seq in seqs]))
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.tolist() == [seq.generate_state(4, np.uint64).tolist() for seq in seqs]


def test_stream_contract_check_fails_on_f_order_seed_words(monkeypatch):
    # PCG64 reads a row's memory as its four words: a row of an F-order array is
    # not four consecutive words, so the streams built from it are not numpy's
    seed_words = _streams._seed_words
    monkeypatch.setattr(_streams, "_seed_words",
                        lambda pools: np.asfortranarray(seed_words(pools)))
    pairs = [(7, (0,))] + [(7, (1, n)) for n in range(3)]
    gens = _generators([_entropy(*pair) for pair in pairs])
    assert not any(gen.bit_generator.state == np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=key)).bit_generator.state
        for gen, (seed, key) in zip(gens, pairs))
    with pytest.raises(AssertionError):
        _assert_stream_is_numpys(gens[1], *pairs[1])


@pytest.mark.parametrize("seed", STREAM_EDGE_SEEDS)
def test_batch_built_stream_pickles_as_numpys(seed):
    pairs = [(seed, (0,)), (seed, (1, 0)), (seed, (1, 2**40))]
    for got, (_, key) in zip(_generators([_entropy(*pair) for pair in pairs]), pairs):
        got.standard_normal(3)
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        want.standard_normal(3)
        clone = pickle.loads(pickle.dumps(got))
        assert clone.bit_generator.state == want.bit_generator.state
        assert clone.standard_normal(5).tolist() == want.standard_normal(5).tolist()


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_substream_is_numpys_spawn_key_stream(seed):
    for key in REGISTRY_KEYS:
        _assert_numpy_stream(seed, key)


def test_substream_seed_sequence_has_numpys_pool_but_not_its_fields():
    """As the README says: the pool is NumPy's, the entropy, spawn_key and repr are not."""
    got = substream(5, 1, 2).bit_generator._seed_seq
    want = np.random.SeedSequence(5, spawn_key=(1, 2))
    assert got.pool.tolist() == want.pool.tolist()
    assert (got.entropy.tolist(), got.spawn_key) == ([5, 0, 0, 0, 1, 2], ())
    assert (want.entropy, want.spawn_key) == (5, (1, 2))
    assert repr(got).startswith("_Seeded(") and repr(want).startswith("SeedSequence(")


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


# the last five: past 2**53, where a float t - 1 rounds; negative and gapped; one time
@pytest.mark.parametrize("times", [(0, 1, 2), (0, 2, 5), (-3, 4), (7,), (-3, -1, 0, 4),
                                   (2.0**53, 2.0**53 + 2), (2.0**54, 2.0**54 + 4),
                                   (-2.0**53 - 2, -2.0**53, 0, 1, 2.0**53), (-9, -8, -5, -4, 6),
                                   (-(2.0**60),)])
def test_ma1_sampler_equals_one_draw_per_time(times):
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        phi = rng.uniform(-0.5, 0.5, (m, m))
        kernel = VectorMA1(phi)
        root = psd_root_per_degree(random_psd(rng, m))
        for seed in range(200):
            got = degree_path(kernel, root, 0.7, [float(t) for t in times],
                              substream(seed, 1, 1))
            want = ma1_path_per_time(phi, root, 0.7, times, substream(seed, 1, 1))
            assert np.array_equal(got, want), (m, seed)


PIN_KERNELS = {"spatial": SPATIAL, "pure_spatial": PureSpatial(),
               "ar1": SeparableScalar("ar1", 0.6), "exponential": SeparableScalar("exponential", 0.8),
               "ma1": VectorMA1([[0.3, -0.2], [0.1, 0.4]])}


# grids per lag domain: integer and fractional gaps, negative times, one time, and unit steps
# (VectorMA1 reads consecutive innovations as views)
ORACLE_GRIDS = {"zero": [[0.0]],
                "integers": [[-3.0, -1.0, 0.0, 4.0, 5.0], [7.0], [0.0, 1.0, 2.0],
                             [float(t) for t in range(-4, 12)]],
                "reals": [[-2.5, -1.0, 0.0, 0.75, 4.0, 4.5], [-0.5]]}


@pytest.mark.parametrize("label", ["sphere:2", "projR:3", "projC:4", "projH:8"])
@pytest.mark.parametrize("kind", list(PIN_KERNELS))
@pytest.mark.parametrize("trunc", [0, 2, 4])
def test_realization_equals_the_whole_realization_oracle(kind, label, trunc):
    """values, latent_v and latent_u equal tests/oracles.py::simulate_reference bit for bit,
    on 5 points (one block) and on 2 blocks and 1 point (two seams)."""
    space = parse_space(label)
    rng = np.random.default_rng(29)
    model = SeriesModel(space, 2, [random_psd(rng, 2, 0.6**n) for n in range(5)],
                        PIN_KERNELS[kind])
    for count in (5, 2 * _SERIES_BLOCK + 1):
        points = sample_uniform_batch(space, count, np.random.default_rng(30))
        for times in ORACLE_GRIDS[model.domain]:
            for seed in (0, 2**64 - 1, 2**130):
                real = simulate_spatiotemporal(model, points, times, trunc=trunc, seed=seed)
                values, latent_v, latent_u = simulate_reference(model, points, times, trunc,
                                                                seed)
                assert np.array_equal(real.values, values), (count, times, seed)
                assert np.array_equal(real.latent_v, latent_v), (count, times, seed)
                assert np.array_equal(real.latent_u, latent_u), (count, times, seed)


@pytest.mark.parametrize("label", ["sphere:2", "projH:8"])
@pytest.mark.parametrize("count", [_SERIES_BLOCK - 1, _SERIES_BLOCK, _SERIES_BLOCK + 1,
                                   _SERIES_BLOCK + 2, 2 * _SERIES_BLOCK + 1, 3 * _SERIES_BLOCK - 3])
def test_one_value_per_point_keeps_its_bits_at_every_block_seam(label, count):
    """m = 1 at one time, where a one-abscissa block of the series sum holds one value:
    values equal the per-degree oracle for every point count."""
    space = parse_space(label)
    model = SeriesModel(space, 1, [[[1.0 / (n + 1) ** 3]] for n in range(41)])
    points = sample_uniform_batch(space, count, np.random.default_rng(count))
    for seed in (0, 7):
        values = simulate_spatial(model, points, seed=seed).values
        assert np.array_equal(values, simulate_reference(model, points, [0.0], 40, seed)[0])


@pytest.mark.parametrize("label", ["sphere:2", "projR:3", "projC:4", "projH:8"])
@pytest.mark.parametrize("degrees", [3, 8, 21, 61])
def test_a_value_keeps_its_bits_whatever_else_is_simulated(label, degrees):
    """m = 1 at one time: point 0 simulated alone has the bits it has among 9 points."""
    space = parse_space(label)
    model = SeriesModel(space, 1, [[[1.0 / (n + 1) ** 3]] for n in range(degrees)])
    points = sample_uniform_batch(space, 9, np.random.default_rng(degrees))
    for seed in range(10):
        alone = simulate_spatial(model, points[:1], seed=seed).values
        assert alone[0] == simulate_spatial(model, points, seed=seed).values[0], seed
        assert np.array_equal(alone, simulate_reference(model, points[:1], [0.0], degrees - 1,
                                                        seed)[0]), seed


def irregular_grid(domain, rng, count=500):
    """count increasing times of the lag domain: unit steps, wider gaps and fractions."""
    if domain == "zero":
        return [0.0]
    steps = (rng.choice([1.0, 1.0, 1.0, 2.0, 9.0], count - 1) if domain == "integers"
             else 0.01 + rng.exponential(0.5, count - 1))
    return np.cumsum(np.concatenate([[-100.0], steps])).tolist()


@pytest.mark.parametrize("kind", list(PIN_KERNELS))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_one_hook_call_equals_the_whole_realization_oracle_on_long_grids(kind, m, monkeypatch):
    """Every degree's path from one sample_paths call equals the per-degree, per-time
    oracle bit for bit on about 500 irregular times; VectorMA1 also one degree a block."""
    rng = np.random.default_rng(61 + m)
    kernel = VectorMA1(rng.uniform(-0.5, 0.5, (m, m))) if kind == "ma1" else PIN_KERNELS[kind]
    model = SeriesModel(S2, m, [random_psd(rng, m, 0.6**n) for n in range(6)], kernel)
    times = irregular_grid(model.domain, rng)
    points = sample_uniform_batch(S2, 4, rng)
    for block in [spectral._PATH_BLOCK] + ([1] if kind == "ma1" else []):
        monkeypatch.setattr(spectral, "_PATH_BLOCK", block)
        for seed in (0, 2**64 - 1):
            real = simulate_spatiotemporal(model, points, times, seed=seed)
            values, latent_v, latent_u = simulate_reference(model, points, real.times, 5, seed)
            assert np.array_equal(real.latent_v, latent_v), (block, seed)
            assert np.array_equal(real.values, values), (block, seed)
            assert np.array_equal(real.latent_u, latent_u), (block, seed)


@pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
def test_simulate_makes_one_hook_call_per_call(kernel):
    model = memo_model(kernel)
    recording = dataclasses.replace(model, kernel=RecordingKernel(model.kernel))
    points = fixed_points(3)
    got = [memo_simulate(recording, 0), simulate_spatial(recording, points, trunc=3, seed=1)]
    assert recording.kernel.streams == [3, 4]  # one call each, drawing every degree
    want = [memo_simulate(model, 0), simulate_spatial(model, points, trunc=3, seed=1)]
    for a, b in zip(got, want):
        assert np.array_equal(a.latent_v, b.latent_v) and np.array_equal(a.values, b.values)


def test_latent_table_of_another_shape_is_refused():
    class OneDegreeKernel(WrappingKernel):  # the path of degree 0 only
        def sample_paths(self, roots, an, times, rngs):
            return self.inner.sample_paths(roots, an, times, rngs)[:1]

    model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)], OneDegreeKernel(PureSpatial()))
    with pytest.raises(UsageError, match=r"returned shape \(1, 2, 2\), expected \(2, 2, 2\)"):
        simulate_spatiotemporal(model, fixed_points(2), [0.0, 1.0], seed=0)


@pytest.mark.parametrize("kind", ["ar1", "exponential", "ma1", "pure_spatial"])
def test_long_grid_paths_hold_about_one_latent_table(kind):
    # 52 degrees x 20,000 times at one point: the latent table is 8.3 MB
    kernel = PIN_KERNELS[kind] if kind != "ma1" else VectorMA1([[0.4]])
    model = SeriesModel(S2, 1, [[[1.0 / (n + 1) ** 3]] for n in range(52)], kernel)
    times = [float(i) for i in range(20_000)]
    simulate_spatiotemporal(model, fixed_points(1), times[:2], seed=0)  # the model's analysis
    tracemalloc.start()
    try:
        real = simulate_spatiotemporal(model, fixed_points(1), times, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert real.latent_v.shape == (52, 20_000, 1)
    assert peak < 1.25 * real.latent_v.nbytes


def test_jacobi_table_is_held_one_block_of_points_at_a_time():
    # 201 degrees on 20,000 points: the whole table is 32 MB, one block of it 6.6 MB
    model = SeriesModel(S2, 1, [[[1.0 / (n + 1) ** 3]] for n in range(201)])
    points = sample_uniform_batch(S2, 20_000, np.random.default_rng(3))
    simulate_spatial(model, points[:2], seed=0)  # the model's analysis
    tracemalloc.start()
    try:
        real = simulate_spatial(model, points, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert real.values.shape == (20_000, 1, 1)
    assert peak < 8_000_000  # one block's table and the 160 KB of values


class TestSeedIndependentMemo:
    """The per-degree a_n and roots, computed once per model object, and the MA(1) index,
    derived once per call, follow every replaced field of the model."""

    @staticmethod
    def assert_equals_oracle(model, trunc=2, seed=4):
        times = [0.0] if model.domain == "zero" else [-1.0, 0.0, 2.0, 3.0]
        points = np.array(fixed_points(3))
        real = simulate_spatiotemporal(model, points, times, trunc=trunc, seed=seed)
        values, latent_v, latent_u = simulate_reference(model, points, times, trunc, seed)
        assert np.array_equal(real.values, values)
        assert np.array_equal(real.latent_v, latent_v)
        assert np.array_equal(real.latent_u, latent_u)

    @pytest.mark.parametrize("kernel", sorted(set(MEMO_KERNELS) - {"user"}))
    def test_reassigned_space_is_seen(self, kernel):
        model = memo_model(kernel)
        self.assert_equals_oracle(model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.space = parse_space("projR:2")
        model = dataclasses.replace(model, space=parse_space("projR:2"))  # other a_n
        assert a_constant(model.space, 2) != a_constant(S2, 2)
        self.assert_equals_oracle(model)
        model = dataclasses.replace(model, space=parse_space("sphere:2"))  # equal to S2
        self.assert_equals_oracle(model)

    @pytest.mark.parametrize("kernel", sorted(set(MEMO_KERNELS) - {"user"}))
    def test_tail_and_coefficient_edits_are_seen(self, kernel):
        model = memo_model(kernel)
        self.assert_equals_oracle(model)
        model = dataclasses.replace(model, tail=TailEnvelope(0.5, 0.5))
        self.assert_equals_oracle(model)
        with pytest.raises(ValueError, match="read-only"):
            model.coeffs[1] *= 3.0
        coeffs = model.coeffs.copy()
        coeffs[1] = 3.0 * coeffs[1]
        model = dataclasses.replace(model, coeffs=coeffs)
        self.assert_equals_oracle(model)
        model = dataclasses.replace(model, coeffs=np.concatenate([coeffs, coeffs]))  # more degrees
        self.assert_equals_oracle(model, trunc=7)
        self.assert_equals_oracle(model, trunc=0)

    def test_kernel_swap_is_seen(self):
        model = memo_model("ar1")
        for kernel in (VectorMA1([[0.4, 0.1], [-0.2, 0.3]]), SeparableScalar("exponential", 0.9),
                       VectorMA1([[-0.5, 0.0], [0.2, 0.1]]), PureSpatial()):
            self.assert_equals_oracle(model)
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.kernel = kernel
            model = dataclasses.replace(model, kernel=kernel)
        self.assert_equals_oracle(model)

    def test_ma1_index_is_not_kept_after_the_call(self):
        # 20,000 times two apart: the index alone is 160 KB of int64, and 40,000 innovations
        model = SeriesModel(S2, 1, [np.eye(1)], VectorMA1([[0.5]]))
        points, times = np.array(fixed_points(1)), [2.0 * k for k in range(20_000)]
        simulate_spatiotemporal(model, points, times[:3], seed=0)  # the model's analysis
        tracemalloc.start()
        try:
            real = simulate_spatiotemporal(model, points, times, seed=0)
            assert tracemalloc.get_traced_memory()[1] > 160_000
            del real
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 16_000

    def test_one_recurrence_per_model(self, monkeypatch):
        """A model builds its Jacobi recurrence once, to its stored degree, and every
        truncation of 100 replicates and 61 scalar eval_cov calls reads it."""
        built, build = [], spectral._recurrence
        monkeypatch.setattr(spectral, "_recurrence",
                            lambda *args: built.append(args) or build(*args))
        model = memo_model("spatial")
        points = np.array(fixed_points(6))
        for seed in range(100):
            simulate_spatial(model, points, trunc=seed % 4, seed=seed)
        for rho in np.linspace(0.0, math.pi, 61):
            eval_cov(model, float(rho), trunc=2)
        assert built == [(model.max_degree, 0.0, 0.0)]
        copied = pickle.loads(pickle.dumps(model))  # a copy carries no recurrence
        eval_cov(copied, 0.5)
        assert built == [(3, 0.0, 0.0)] * 2


COPIES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("kind", list(PIN_KERNELS))
def test_copied_model_is_rebuilt_through_the_constructor(kind, how, monkeypatch):
    """A pickled or copied model has read-only coefficients and kernel matrix, carries
    no analysis, and simulates bit-identically to the original."""
    rng = np.random.default_rng(29)
    model = SeriesModel(S2, 2, [random_psd(rng, 2, 0.6**n) for n in range(4)],
                        PIN_KERNELS[kind], TailEnvelope(0.5, 0.5))
    times = [0.0] if kind == "spatial" else [-1.0, 0.0, 2.0, 3.0]
    points = np.array(fixed_points(3))
    want = simulate_spatiotemporal(model, points, times, trunc=3, seed=8)  # analysed
    factored, factor = [], spectral.factor_coefficients
    monkeypatch.setattr(spectral, "factor_coefficients",
                        lambda m: factored.append(m) or factor(m))
    copied = COPIES[how](model)
    assert not copied.coeffs.flags.writeable
    assert not np.shares_memory(copied.coeffs, model.coeffs)
    assert np.array_equal(copied.coeffs, model.coeffs) and copied.tail == model.tail
    for kernel in (copied.kernel, COPIES[how](model.kernel)):
        assert kernel.domain == model.domain
        assert kind != "ma1" or not kernel.phi.flags.writeable
    got = simulate_spatiotemporal(copied, points, times, trunc=3, seed=8)
    assert factored == [copied]
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.latent_v, want.latent_v)
    assert np.array_equal(got.latent_u, want.latent_u)


TWINS = {"model": lambda: SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)]),
         "scalar-model": lambda: SeriesModel(S2, 1, [[[1.0]], [[0.5]]]),
         "ma1": lambda: VectorMA1([[0.3, -0.2], [0.1, 0.4]]),
         "realization": lambda: simulate_spatial(SeriesModel(S2, 1, [[[1.0]], [[0.5]]]),
                                                 fixed_points(3), seed=1)}


@pytest.mark.parametrize("kind", list(TWINS))
def test_value_types_compare_and_hash_by_identity(kind):
    # == compared the array fields, and numpy's truth value of an array raised
    a, b = TWINS[kind](), TWINS[kind]()
    assert a == a and a != b and not (a == b)
    assert {a: "a", b: "b"}[a] == "a" and hash(a) == hash(a)


@pytest.mark.parametrize("label", ["sphere:2", "projR:3", "projC:4", "projH:8"])
@pytest.mark.parametrize("kind", list(PIN_KERNELS))
def test_realization_equals_the_public_stream_reference(kind, label):
    """Every array of a realization equals its build from the public substream,
    sample_uniform_batch, one-degree sample_paths calls, cos_distance_batch and jacobi_all."""
    space = parse_space(label)
    rng = np.random.default_rng(23)
    model = SeriesModel(space, 2, [random_psd(rng, 2, 0.6**n) for n in range(4)],
                        PIN_KERNELS[kind])
    times = [0.0] if kind == "spatial" else [-1.0, 0.0, 2.0, 3.0]
    points = sample_uniform_batch(space, 5, np.random.default_rng(24))
    roots = factor_coefficients(model)[1]
    # 2**100 + 7 fills the four padded seed words, and 2**130 takes five
    for seed in (0, 2**32, 2**64 - 1, 2**100 + 7, 2**130):
        real = simulate_spatiotemporal(model, points, times, trunc=3, seed=seed)
        u = sample_uniform_batch(space, 1, substream(seed, 0))[0]
        assert np.array_equal(real.latent_u, u)
        for n in range(4):
            want = degree_path(model.kernel, roots[n], a_constant(space, n), times,
                               substream(seed, 1, n))
            assert np.array_equal(real.latent_v[n], want), (seed, n)
        pn = jacobi_all(3, space.geom, cos_distance_batch(space, u, points))
        assert np.array_equal(real.values, np.einsum("np,ntm->ptm", pn, real.latent_v))
