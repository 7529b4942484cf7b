import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from isofield import (
    GeometryError,
    ParameterError,
    SpaceFamily,
    UsageError,
    a_constant,
    dim_eigenspace,
    distance,
    jacobi_at_one,
    jacobi_normalized,
    laplace_eigenvalue,
    make_point,
    make_space,
    parse_space,
    sample_uniform_batch,
    sphere_volume,
)
from isofield import spaces
from isofield.jacobi import JacobiParams, jacobi_norm_constant
from isofield.spaces import cos_distance_batch
from isofield.verify import mc_funk_hecke
from tests.oracles import (
    dim_eigenspace_mp, qconj, qmul, qnorm, qrandn_unit, regauge, zonal,
)

SAMPLEABLE = ["sphere:2", "projR:3", "projC:4", "projH:8"]


class TestMakeSpace:
    def test_sphere2_parameters(self):
        s = make_space(SpaceFamily.SPHERE, 2)
        assert (s.geom.alpha, s.geom.beta) == (0.0, 0.0)
        assert (s.lie.alpha, s.lie.beta) == (0.0, 0.0)
        assert s.epsilon == 1 and s.weinstein == 1 and s.e == 2

    def test_octonionic_plane_parameters(self):
        s = make_space(SpaceFamily.OCTONION_PROJECTIVE, 16)
        assert (s.geom.alpha, s.geom.beta) == (7.0, 3.0)
        assert (s.p, s.q) == (8, 7)
        assert s.weinstein == 39
        assert s.e == 8

    def test_real_projective_parameters(self):
        s = make_space(SpaceFamily.REAL_PROJECTIVE, 3)
        assert s.geom.beta == -0.5
        assert s.epsilon == 2
        # Lie convention keeps the sphere's exponents
        assert (s.lie.alpha, s.lie.beta) == (0.5, 0.5)
        assert s.e == 1

    def test_parse_labels(self):
        assert parse_space("sphere:2").label == "sphere:2"
        assert parse_space("projC:4").family is SpaceFamily.COMPLEX_PROJECTIVE
        with pytest.raises(ParameterError):
            parse_space("torus:2")
        with pytest.raises(ParameterError):
            parse_space("sphere")

    @pytest.mark.parametrize(
        "family,bad_d",
        [
            (SpaceFamily.SPHERE, 0),
            (SpaceFamily.REAL_PROJECTIVE, 1),
            (SpaceFamily.COMPLEX_PROJECTIVE, 5),
            (SpaceFamily.COMPLEX_PROJECTIVE, 2),
            (SpaceFamily.QUATERNION_PROJECTIVE, 10),
            (SpaceFamily.QUATERNION_PROJECTIVE, 4),
            (SpaceFamily.OCTONION_PROJECTIVE, 8),
        ],
    )
    def test_dimension_constraints(self, family, bad_d):
        with pytest.raises(ParameterError):
            make_space(family, bad_d)

    @pytest.mark.parametrize("family", ["sphere", None, 2])
    def test_family_must_be_a_space_family(self, family):
        with pytest.raises(ParameterError, match="family must be a SpaceFamily"):
            make_space(family, 2)

    @pytest.mark.parametrize("d", ["x", "2", True, np.True_, math.nan, math.inf, 2.5, None])
    def test_dimension_must_be_a_whole_number(self, d):
        with pytest.raises(ParameterError, match="dimension must be an integer"):
            make_space(SpaceFamily.SPHERE, d)

    def test_integral_dimension_is_admitted(self):
        assert make_space(SpaceFamily.SPHERE, 2.0) == make_space(SpaceFamily.SPHERE, np.int64(2))

    @pytest.mark.parametrize("label", ["sphere:99999999", "projR:2000", "projC:1002"])
    def test_dimension_above_the_cap_is_rejected(self, label):
        # projR:2000 also overflowed math.exp in the volume ratio
        with pytest.raises(ParameterError, match="exceeds the cap of 1000"):
            parse_space(label)

    @pytest.mark.parametrize("label", ["sphere:1000", "projR:1000", "projC:1000", "projH:1000"])
    def test_dimension_at_the_cap_is_admitted(self, label):
        assert parse_space(label).d == spaces.MAX_DIMENSION == 1000


class TestVolumes:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_sphere_closed_form(self, d):
        s = make_space(SpaceFamily.SPHERE, d)
        want = 2 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
        assert s.volume == pytest.approx(want, rel=1e-12)
        assert s.weinstein == 1

    @pytest.mark.parametrize(
        "label",
        ["sphere:1", "sphere:2", "sphere:16", "projR:2", "projR:3", "projR:9",
         "projC:4", "projC:6", "projC:8", "projH:8", "projH:12", "projO:16"],
    )
    def test_volume_is_integer_multiple_of_sphere(self, label):
        s = parse_space(label)
        assert s.volume == pytest.approx(s.weinstein * sphere_volume(s.d), rel=1e-9)

    def test_weinstein_table(self):
        assert parse_space("projR:4").weinstein == 2**3
        assert parse_space("projR:9").weinstein == 2**8
        assert parse_space("projC:6").weinstein == math.comb(5, 2)
        assert parse_space("projH:8").weinstein == math.comb(7, 3) // 5
        assert parse_space("projH:12").weinstein == math.comb(11, 5) // 7
        assert parse_space("projO:16").weinstein == 39

    def test_circle_circumference(self):
        assert make_space(SpaceFamily.SPHERE, 1).volume == pytest.approx(
            2 * math.pi, rel=1e-12
        )


class TestDistance:
    @pytest.mark.parametrize("label", ["projH:8", "projH:12"])
    def test_quaternion_moduli_equal_the_hamilton_product_reference(self, label):
        # the same operations in the same order as the reference, so the same bits
        s = parse_space(label)
        rng = np.random.default_rng(16)
        base = sample_uniform_batch(s, 1, rng)[0]
        for reps in (sample_uniform_batch(s, 20_000, rng),
                     rng.standard_normal((5_000, *base.shape))):
            want = qnorm(np.sum(qmul(qconj(reps), base), axis=-2))
            assert np.array_equal(spaces._hdot(reps, base), want)

    def test_sphere_antipodal(self):
        s = parse_space("sphere:2")
        x = make_point(s, [0, 0, 1])
        y = make_point(s, [0, 0, -1])
        assert distance(s, x, y) == pytest.approx(math.pi)
        assert distance(s, x, x) == 0.0

    def test_real_projective_identified(self):
        s = parse_space("projR:3")
        x = make_point(s, [0.5, 0.5, 0.5, 0.5])
        y = make_point(s, [-0.5, -0.5, -0.5, -0.5])
        assert distance(s, x, y) == 0.0

    def test_complex_orthogonal_is_antipodal(self):
        s = parse_space("projC:4")
        x = make_point(s, [1, 0, 0])
        y = make_point(s, [0, 1j, 0])
        assert distance(s, x, y) == pytest.approx(math.pi)

    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_symmetry_and_triangle(self, label):
        s = parse_space(label)
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            x, y, z = sample_uniform_batch(s, 3, rng)
            dxy = distance(s, x, y)
            assert dxy == pytest.approx(distance(s, y, x), abs=1e-10)
            assert 0.0 <= dxy <= math.pi
            assert dxy <= distance(s, x, z) + distance(s, z, y) + 1e-10

    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_regauging_leaves_distance_unchanged(self, label):
        s = parse_space(label)
        rng = np.random.default_rng(12)
        for _ in range(200):
            x, y = sample_uniform_batch(s, 2, rng)
            d0 = distance(s, x, y)
            d1 = distance(s, regauge(s, x, rng), regauge(s, y, rng))
            assert d1 == pytest.approx(d0, abs=1e-12)
            assert distance(s, x, regauge(s, x, rng)) <= 1e-6

    def test_sphere_orthogonal_isometry(self):
        s = parse_space("sphere:3")
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for _ in range(100):
            x, y = sample_uniform_batch(s, 2, rng)
            xt = make_point(s, q @ x)
            yt = make_point(s, q @ y)
            assert distance(s, xt, yt) == pytest.approx(distance(s, x, y), abs=1e-10)

    def test_complex_unitary_isometry(self):
        s = parse_space("projC:4")
        rng = np.random.default_rng(14)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        for _ in range(100):
            x, y = sample_uniform_batch(s, 2, rng)
            xt = make_point(s, u @ x)
            yt = make_point(s, u @ y)
            assert distance(s, xt, yt) == pytest.approx(distance(s, x, y), abs=1e-10)

    def test_quaternion_isometries(self):
        s = parse_space("projH:8")
        rng = np.random.default_rng(15)
        # real orthogonal mixing of the quaternion coordinates commutes with
        # conjugation, left unit-quaternion factors cancel in conj(x_k) y_k
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = qrandn_unit(rng, (3,))
        for _ in range(100):
            x, y = sample_uniform_batch(s, 2, rng)
            xt = make_point(s, np.tensordot(q, x, axes=(1, 0)))
            yt = make_point(s, np.tensordot(q, y, axes=(1, 0)))
            assert distance(s, xt, yt) == pytest.approx(distance(s, x, y), abs=1e-10)
            xl = make_point(s, qmul(w, x))
            yl = make_point(s, qmul(w, y))
            assert distance(s, xl, yl) == pytest.approx(distance(s, x, y), abs=1e-10)

    def test_octonionic_plane_unsupported(self):
        s = parse_space("projO:16")
        rng = np.random.default_rng(0)
        with pytest.raises(GeometryError):
            sample_uniform_batch(s, 1, rng)[0]
        sp2 = parse_space("sphere:2")
        x = make_point(sp2, [0, 0, 1])
        with pytest.raises(GeometryError):
            distance(s, x, x)

    def test_mismatched_spaces_rejected(self):
        s2 = parse_space("sphere:2")
        s3 = parse_space("sphere:3")
        rng = np.random.default_rng(1)
        x2 = sample_uniform_batch(s2, 1, rng)[0]
        x3 = sample_uniform_batch(s3, 1, rng)[0]
        with pytest.raises(UsageError):
            distance(s2, x2, x3)
        with pytest.raises(UsageError, match="point of sphere:3 used with space sphere:2"):
            distance(s2, x2, make_point(s3, x3))

    def test_point_normalization(self):
        s = parse_space("sphere:2")
        p = make_point(s, [3.0, 0.0, 4.0])
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(UsageError):
            make_point(s, [0.0, 0.0, 0.0])
        with pytest.raises(UsageError):
            make_point(s, [1.0, 0.0])

    @pytest.mark.parametrize("label, coords, want", [
        ("sphere:2", [1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ("sphere:2", [1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ("sphere:2", [3e-170, 4e-170, 0.0], [0.6, 0.8, 0.0]),
        ("sphere:2", [1e-160, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ("sphere:2", [1e308, -1e308, 0.0], [0.5**0.5, -(0.5**0.5), 0.0]),
        ("projC:4", [0.0, 1e-200j, 0.0], [0.0, 1j, 0.0]),
        ("projC:4", [1.5e308 + 1.5e308j, 0.0, 0.0], [0.5**0.5 * (1 + 1j), 0.0, 0.0]),
    ])
    def test_finite_nonzero_rows_whose_squares_underflow_or_overflow_normalize(
            self, label, coords, want):
        s = parse_space(label)
        rep = make_point(s, coords).coords
        assert np.allclose(rep, want, rtol=0.0, atol=1e-15)
        assert spaces.point_array(s, [rep]).shape == (1, len(want))  # a unit representative

    def test_ordinary_rows_divide_by_their_norm_beside_rescaled_ones(self):
        s = parse_space("sphere:2")
        batch = np.array([[3.0, 0.0, 4.0], [1e-200, 0.0, 0.0], [1.0, 2.0, 2.0], [0.1, 0.2, 0.3]])
        ordinary = batch[[0, 2, 3]]
        want = ordinary / np.sqrt(np.sum(ordinary**2, axis=1, keepdims=True))
        assert np.array_equal(spaces.normalize_points(s, batch)[[0, 2, 3]], want)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0],
                                     [1e308, np.inf, 0.0], [-0.0, 0.0, 0.0]])
    def test_zero_and_non_finite_rows_are_refused(self, row):
        s = parse_space("sphere:2")
        with pytest.raises(UsageError, match="point representative 1 must be nonzero and finite"):
            spaces.normalize_points(s, [[1.0, 0.0, 0.0], row, [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("label", ["sphere:2", "projC:4", "projH:8"])
    def test_every_point_the_gate_accepts_has_a_distance(self, label):
        # a norm of 1 + 0.9e-12 is within point_array's unit tolerance, and the point's inner
        # product with itself, 1 + 1.8e-12, was once refused as "not normalized?"
        s = parse_space(label)
        x = sample_uniform_batch(s, 1, np.random.default_rng(37))[0]
        x = x * ((1.0 + 0.9e-12) / np.linalg.norm(x))
        assert np.array_equal(spaces.point_array(s, x[None]), x[None])
        assert distance(s, x, x) == 0.0
        assert cos_distance_batch(s, x, x[None]).tolist() == [1.0]
        assert np.isfinite(mc_funk_hecke(s, 1, 1, x, x, replicates=100).value)
        for scale in (1.0 + 1e-9, 1.0 - 1e-9):
            with pytest.raises(UsageError, match="point 0 is not a finite unit representative"):
                spaces.point_array(s, (scale * x)[None])
        with pytest.raises(UsageError, match="inner product exceeds 1 beyond tolerance"):
            cos_distance_batch(s, x, (2.0 * x)[None])


class TestSampling:
    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_cos_distance_law(self, label):
        # cos rho(o, U) must follow the beta-type law with the geometric
        # exponents; on S^2 this is the classic (1 - cos)/2 distance CDF.
        s = parse_space(label)
        rng = np.random.default_rng(21)
        base = sample_uniform_batch(s, 1, rng)[0]
        reps = sample_uniform_batch(s, 100_000, rng)
        cosr = cos_distance_batch(s, base, reps)
        a, b = s.geom.alpha, s.geom.beta
        res = scipy.stats.kstest(cosr, lambda x: sps.betainc(b + 1, a + 1, (1 + x) / 2))
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("label", SAMPLEABLE)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zonal_mean_vanishes(self, label, n):
        s = parse_space(label)
        rng = np.random.default_rng(22 + n)
        base = sample_uniform_batch(s, 1, rng)[0]
        reps = sample_uniform_batch(s, 100_000, rng)
        vals = jacobi_normalized(n, s.geom, cos_distance_batch(s, base, reps))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 5 * se

    def test_deterministic_given_stream(self):
        s = parse_space("projC:4")
        a = sample_uniform_batch(s, 1, np.random.default_rng(33))[0]
        b = sample_uniform_batch(s, 1, np.random.default_rng(33))[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_batch_equals_successive_single_draws(self, label):
        s = parse_space(label)
        batch = sample_uniform_batch(s, 7, np.random.default_rng(34))
        rng = np.random.default_rng(34)
        singles = np.concatenate([sample_uniform_batch(s, 1, rng) for _ in range(7)])
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, -1, "3", None])
    def test_count_that_is_not_a_natural_number_is_named(self, count):
        # 2.5 and True once escaped as numpy's TypeError, -1 as its ValueError
        with pytest.raises(UsageError, match=f"^point count {count} must be a non-negative"):
            sample_uniform_batch(parse_space("sphere:2"), count, np.random.default_rng(35))

    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_zero_and_numpy_integer_counts(self, label):
        s = parse_space(label)
        empty = sample_uniform_batch(s, 0, np.random.default_rng(36))
        assert empty.shape == (0, *spaces.ambient_shape(s))
        assert np.array_equal(sample_uniform_batch(s, np.int64(2), np.random.default_rng(36)),
                              sample_uniform_batch(s, 2, np.random.default_rng(36)))


def _antipode(space, x, y):
    """A representative at distance pi from x: -x on spheres, else y minus its
    component along x in the family's inner product."""
    if space.family is SpaceFamily.SPHERE:
        return -x
    if space.family is SpaceFamily.QUATERNION_PROJECTIVE:
        return y - qmul(x, qmul(qconj(x), y).sum(axis=0))
    return y - x * np.vdot(x, y)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(label=st.sampled_from(SAMPLEABLE), seed=st.integers(0, 2**32),
       eps=st.floats(1e-17, 1e-3))
def test_cos_distance_batch_stays_in_the_closed_interval(label, seed, eps):
    # simulate_* feeds these values to the Jacobi recurrence with no second clamp
    space = parse_space(label)
    x, y = sample_uniform_batch(space, 2, np.random.default_rng(seed))
    reps = spaces.normalize_points(space, [x, -x, x + eps * y, x - eps * x, _antipode(space, x, y),
                                           _antipode(space, x, y) + eps * x, y])
    c = cos_distance_batch(space, x, reps)
    assert c.dtype == float and np.all((-1.0 <= c) & (c <= 1.0)), c


class TestZonal:
    def test_unit_at_zero_distance(self):
        rng = np.random.default_rng(31)
        for label in SAMPLEABLE:
            s = parse_space(label)
            x = sample_uniform_batch(s, 1, rng)[0]
            assert zonal(s, 4, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_degree_one_is_cosine(self):
        s = parse_space("sphere:2")
        rng = np.random.default_rng(32)
        for _ in range(50):
            x, y = sample_uniform_batch(s, 2, rng)
            assert zonal(s, 1, x, y) == pytest.approx(
                math.cos(distance(s, x, y)), abs=1e-12
            )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_real_projective_even_sphere_zonal(self, n):
        # R_{2n}^{(a,a)}(cos(rho/2)) with the sphere exponents equals the
        # projective zonal R_n^{(a,-1/2)}(cos rho).
        s = parse_space("projR:3")
        sphere_pair = JacobiParams((s.d - 2) / 2.0, (s.d - 2) / 2.0)
        rng = np.random.default_rng(33)
        for _ in range(25):
            x, y = sample_uniform_batch(s, 2, rng)
            rho = distance(s, x, y)
            lifted = jacobi_normalized(2 * n, sphere_pair, math.cos(rho / 2.0))
            assert zonal(s, n, x, y) == pytest.approx(lifted, rel=1e-10, abs=1e-10)


class TestSpectralConstants:
    @pytest.mark.parametrize(
        "label", ["sphere:1", "sphere:2", "projR:2", "projR:3", "projC:4", "projH:8", "projO:16"]
    )
    def test_a0_and_dim0(self, label):
        s = parse_space(label)
        assert a_constant(s, 0) == 1.0
        assert dim_eigenspace(s, 0) == 1.0

    def test_sphere2_values(self):
        s = parse_space("sphere:2")
        for n in range(20):
            assert a_constant(s, n) == pytest.approx(math.sqrt(2 * n + 1), rel=1e-13)
            assert dim_eigenspace(s, n) == pytest.approx(2 * n + 1, rel=1e-12)

    def test_projR2_dims(self):
        s = parse_space("projR:2")
        for n in range(15):
            assert dim_eigenspace(s, n) == pytest.approx(4 * n + 1, rel=1e-11)

    @pytest.mark.parametrize(
        "label", ["sphere:2", "projR:3", "projC:4", "projH:8", "projO:16", "sphere:1"]
    )
    def test_an_squared_times_pn1_is_dimension(self, label):
        s = parse_space(label)
        for n in range(51):
            lhs = a_constant(s, n) ** 2 * jacobi_at_one(n, s.geom)
            assert lhs == pytest.approx(dim_eigenspace(s, n), rel=1e-12)

    @pytest.mark.parametrize("label", ["sphere:2", "projR:3", "projC:4", "projH:8", "projO:16"])
    def test_dimension_integrality_highprecision(self, label):
        # the float evaluation tracks a 60-digit evaluation, which itself
        # sits on an integer to far better than 1e-8
        s = parse_space(label)
        for n in range(51):
            exact = dim_eigenspace_mp(s.geom.alpha, s.geom.beta, n)
            assert abs(float(exact - round(exact))) < 1e-8
            assert dim_eigenspace(s, n) == pytest.approx(float(exact), rel=1e-11)

    def test_constants_past_a_float_read_inf(self):
        # math.exp raised OverflowError; values below the overflow are unchanged
        s = parse_space("sphere:1000")
        assert dim_eigenspace(s, 307) == pytest.approx(6.478576382553765e307, rel=1e-12)
        assert dim_eigenspace(s, 308) == math.inf
        assert jacobi_at_one(512, s.geom) < math.inf == jacobi_at_one(1024, s.geom)
        assert a_constant(s, 4096) < math.inf == a_constant(s, 16384)
        wide = JacobiParams(1100.0, 0.0)  # 2^(a+b+1) alone overflows
        assert jacobi_norm_constant(0, wide) == jacobi_norm_constant(5, wide) == math.inf

    @pytest.mark.parametrize("label", ["sphere:2", "projR:3", "projC:4", "projH:8"])
    @pytest.mark.parametrize("n", [10**k for k in range(5, 16)])
    def test_high_degree_constants_match_mpmath(self, label, n):
        # the lgamma terms, each of size n log n, cancelled: dim H_n on sphere:2 was off by
        # 4e-3 relative at n = 10^12
        mpmath = pytest.importorskip("mpmath")
        s = parse_space(label)
        with mpmath.workdps(50):
            a, b, x = mpmath.mpf(s.geom.alpha), mpmath.mpf(s.geom.beta), mpmath.mpf(n)
            lg = mpmath.loggamma
            a_sq = (2 * x + a + b + 1) * mpmath.exp(
                lg(b + 1) + lg(x + a + b + 1) - lg(a + b + 2) - lg(x + b + 1))
            dim = a_sq * mpmath.exp(lg(x + a + 1) - lg(x + 1) - lg(a + 1))
            for got, want in ((a_constant(s, n), mpmath.sqrt(a_sq)),
                              (dim_eigenspace(s, n), dim)):
                assert abs(got - want) <= 1e-12 * want, (got, want)

    def test_sphere2_constants_at_10_16(self):
        s = parse_space("sphere:2")
        assert dim_eigenspace(s, 10**16) == pytest.approx(2e16 + 1, rel=1e-12)
        assert a_constant(s, 10**15) ** 2 == pytest.approx(2e15 + 1, rel=1e-12)

    def test_constants_below_the_stirling_degree_keep_their_bits(self):
        # a_n fixes simulated values, so the lgamma form stays below jacobi._STIRLING_DEGREE
        s = parse_space("projH:8")
        a, b, n = s.geom.alpha, s.geom.beta, 1000
        assert a_constant(s, n) == math.exp(0.5 * (
            math.lgamma(b + 1.0) + math.log(2.0 * n + a + b + 1.0) + math.lgamma(n + a + b + 1.0)
            - math.lgamma(a + b + 2.0) - math.lgamma(n + b + 1.0)))

    @pytest.mark.parametrize("n", [True, np.True_])
    def test_bools_are_not_degrees(self, n):
        s = parse_space("sphere:2")
        for constant in (a_constant, dim_eigenspace, laplace_eigenvalue):
            with pytest.raises(ParameterError, match="degree must be a nonnegative integer"):
                constant(s, n)

    def test_laplace_eigenvalues(self):
        s2 = parse_space("sphere:2")
        r2 = parse_space("projR:2")
        assert laplace_eigenvalue(s2, 0) == 0.0
        for n in range(10):
            assert laplace_eigenvalue(s2, n) == pytest.approx(-n * (n + 1))
            assert laplace_eigenvalue(r2, n) == pytest.approx(-2 * n * (2 * n + 1))
