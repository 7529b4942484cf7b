import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats

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
    sample_uniform,
    sample_uniform_batch,
    sphere_volume,
)
from isofield import spaces
from isofield.jacobi import JacobiParams
from isofield.spaces import cos_distance_batch
from tests.oracles import dim_eigenspace_mp, qrandn_unit, regauge, zonal

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
            x, y, z = (sample_uniform(s, rng) for _ in range(3))
            dxy = distance(s, x, y)
            assert dxy == pytest.approx(distance(s, y, x), abs=1e-10)
            assert 0.0 <= dxy <= math.pi
            assert dxy <= distance(s, x, z) + distance(s, z, y) + 1e-10

    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_regauging_leaves_distance_unchanged(self, label):
        s = parse_space(label)
        rng = np.random.default_rng(12)
        for _ in range(200):
            x, y = sample_uniform(s, rng), sample_uniform(s, rng)
            d0 = distance(s, x, y)
            d1 = distance(s, regauge(s, x, rng), regauge(s, y, rng))
            assert d1 == pytest.approx(d0, abs=1e-12)
            assert distance(s, x, regauge(s, x, rng)) <= 1e-6

    def test_sphere_orthogonal_isometry(self):
        s = parse_space("sphere:3")
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for _ in range(100):
            x, y = sample_uniform(s, rng), sample_uniform(s, rng)
            xt = make_point(s, q @ x.coords)
            yt = make_point(s, q @ y.coords)
            assert distance(s, xt, yt) == pytest.approx(distance(s, x, y), abs=1e-10)

    def test_complex_unitary_isometry(self):
        s = parse_space("projC:4")
        rng = np.random.default_rng(14)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        for _ in range(100):
            x, y = sample_uniform(s, rng), sample_uniform(s, rng)
            xt = make_point(s, u @ x.coords)
            yt = make_point(s, u @ y.coords)
            assert distance(s, xt, yt) == pytest.approx(distance(s, x, y), abs=1e-10)

    def test_quaternion_isometries(self):
        from isofield.quaternions import qmul

        s = parse_space("projH:8")
        rng = np.random.default_rng(15)
        # real orthogonal mixing of the quaternion coordinates commutes with
        # conjugation, left unit-quaternion factors cancel in conj(x_k) y_k
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = qrandn_unit(rng, (3,))
        for _ in range(100):
            x, y = sample_uniform(s, rng), sample_uniform(s, rng)
            xt = make_point(s, np.tensordot(q, x.coords, axes=(1, 0)))
            yt = make_point(s, np.tensordot(q, y.coords, axes=(1, 0)))
            assert distance(s, xt, yt) == pytest.approx(distance(s, x, y), abs=1e-10)
            xl = make_point(s, qmul(w, x.coords))
            yl = make_point(s, qmul(w, y.coords))
            assert distance(s, xl, yl) == pytest.approx(distance(s, x, y), abs=1e-10)

    def test_octonionic_plane_unsupported(self):
        s = parse_space("projO:16")
        rng = np.random.default_rng(0)
        with pytest.raises(GeometryError):
            sample_uniform(s, rng)
        sp2 = parse_space("sphere:2")
        x = make_point(sp2, [0, 0, 1])
        with pytest.raises(GeometryError):
            distance(s, x, x)

    def test_mismatched_spaces_rejected(self):
        s2 = parse_space("sphere:2")
        s3 = parse_space("sphere:3")
        rng = np.random.default_rng(1)
        x2 = sample_uniform(s2, rng)
        x3 = sample_uniform(s3, rng)
        with pytest.raises(UsageError):
            distance(s2, x2, x3)

    def test_point_normalization(self):
        s = parse_space("sphere:2")
        p = make_point(s, [3.0, 0.0, 4.0])
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(UsageError):
            make_point(s, [0.0, 0.0, 0.0])
        with pytest.raises(UsageError):
            make_point(s, [1.0, 0.0])


class TestSampling:
    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_cos_distance_law(self, label):
        # cos rho(o, U) must follow the beta-type law with the geometric
        # exponents; on S^2 this is the classic (1 - cos)/2 distance CDF.
        s = parse_space(label)
        rng = np.random.default_rng(21)
        base = sample_uniform(s, rng)
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
        base = sample_uniform(s, rng)
        reps = sample_uniform_batch(s, 100_000, rng)
        vals = jacobi_normalized(n, s.geom, cos_distance_batch(s, base, reps))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 5 * se

    def test_deterministic_given_stream(self):
        s = parse_space("projC:4")
        a = sample_uniform(s, np.random.default_rng(33))
        b = sample_uniform(s, np.random.default_rng(33))
        assert np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("label", SAMPLEABLE)
    def test_batch_equals_successive_single_draws(self, label):
        s = parse_space(label)
        batch = sample_uniform_batch(s, 7, np.random.default_rng(34))
        rng = np.random.default_rng(34)
        singles = np.stack([sample_uniform(s, rng).coords for _ in range(7)])
        assert np.array_equal(batch, singles)


class TestZonal:
    def test_unit_at_zero_distance(self):
        rng = np.random.default_rng(31)
        for label in SAMPLEABLE:
            s = parse_space(label)
            x = sample_uniform(s, rng)
            assert zonal(s, 4, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_degree_one_is_cosine(self):
        s = parse_space("sphere:2")
        rng = np.random.default_rng(32)
        for _ in range(50):
            x, y = sample_uniform(s, rng), sample_uniform(s, rng)
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
            x, y = sample_uniform(s, rng), sample_uniform(s, rng)
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

    def test_laplace_eigenvalues(self):
        s2 = parse_space("sphere:2")
        r2 = parse_space("projR:2")
        assert laplace_eigenvalue(s2, 0) == 0.0
        for n in range(10):
            assert laplace_eigenvalue(s2, n) == pytest.approx(-n * (n + 1))
            assert laplace_eigenvalue(r2, n) == pytest.approx(-2 * n * (2 * n + 1))
