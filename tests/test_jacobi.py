import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps

from isofield import (
    DomainError,
    JacobiParams,
    ParameterError,
    gauss_jacobi,
    jacobi_all,
    jacobi_at_one,
    jacobi_eval,
    jacobi_norm_constant,
    jacobi_normalized,
)
from isofield.jacobi import _SERIES_BLOCK, _jacobi_series, _recurrence
from tests.oracles import (
    jacobi_explicit_sum,
    jacobi_series_per_degree,
    jacobi_two_row_recurrence,
    shifted_monomial_integral,
    weight_mass,
)

# One parameter pair per space family (geometric convention).
GEOM_PAIRS = [
    JacobiParams(0.0, 0.0),      # sphere, d=2
    JacobiParams(0.5, -0.5),     # real projective, d=3
    JacobiParams(1.0, 0.0),      # complex projective, d=4
    JacobiParams(3.0, 1.0),      # quaternionic projective, d=8
    JacobiParams(7.0, 3.0),      # octonionic plane
]


class TestEval:
    def test_degree_zero_is_one(self):
        assert jacobi_eval(0, JacobiParams(3.7, 0.2), 0.3) == 1.0

    def test_degree_one_legendre(self):
        # explicit sum: (a+1) + (a+b+2)(x-1)/2
        assert jacobi_eval(1, JacobiParams(0, 0), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_value_at_one_high_params(self):
        # Gamma(10) / (2! Gamma(8)) = 36
        assert jacobi_eval(2, JacobiParams(7, 3), 1.0) == pytest.approx(36.0, rel=1e-13)

    @pytest.mark.parametrize("params", GEOM_PAIRS)
    @pytest.mark.parametrize("n", range(6))
    def test_recurrence_matches_explicit_sum(self, params, n):
        for x in np.linspace(-1, 1, 41):
            want = jacobi_explicit_sum(n, params.alpha, params.beta, x)
            got = jacobi_eval(n, params, x)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = rng.uniform(-0.9, 6, size=2)
            n = int(rng.integers(0, 30))
            x = rng.uniform(-1, 1)
            want = sps.eval_jacobi(n, a, b, x)
            assert jacobi_eval(n, JacobiParams(a, b), x) == pytest.approx(
                want, rel=1e-9, abs=1e-9
            )

    def test_symmetry_parameter_swap(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.uniform(-0.9, 7, size=2)
            n = int(rng.integers(0, 20))
            x = rng.uniform(-1, 1)
            lhs = jacobi_eval(n, JacobiParams(a, b), -x)
            rhs = (-1.0) ** n * jacobi_eval(n, JacobiParams(b, a), x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        params = JacobiParams(1.5, 0.25)
        xs = np.linspace(-1, 1, 17)
        vec = jacobi_eval(7, params, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == jacobi_eval(7, params, float(x))

    def test_clamp_and_domain_error(self):
        params = JacobiParams(0, 0)
        assert jacobi_eval(3, params, 1.0 + 5e-13) == jacobi_eval(3, params, 1.0)
        with pytest.raises(DomainError):
            jacobi_eval(3, params, 1.0 + 1e-9)
        with pytest.raises(DomainError):
            jacobi_eval(3, params, -1.1)
        with pytest.raises(DomainError):
            jacobi_eval(3, params, float("nan"))
        with pytest.raises(DomainError):
            jacobi_all(3, params, np.array([0.0, np.nan, 0.5]))

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ParameterError):
            JacobiParams(0.0, -2.0)
        with pytest.raises(ParameterError):
            jacobi_eval(-1, JacobiParams(0, 0), 0.0)


class TestAll:
    @pytest.mark.parametrize("params", GEOM_PAIRS + [JacobiParams(-0.5, -0.5)])
    def test_rows_bit_identical_to_per_degree_recurrence(self, params):
        xs = np.random.default_rng(8).uniform(-1.0, 1.0, 500)
        table = jacobi_all(200, params, xs)
        assert table.shape == (201, 500)
        for n in range(201):
            want = jacobi_two_row_recurrence(n, params.alpha, params.beta, xs)
            assert np.array_equal(table[n], want), n
            assert np.array_equal(jacobi_eval(n, params, xs), want), n

    def test_shapes(self):
        params = JacobiParams(1.0, 0.0)
        assert jacobi_all(0, params, 0.3).shape == (1,)
        assert jacobi_all(4, params, 0.3).shape == (5,)
        assert jacobi_all(4, params, np.zeros((2, 3))).shape == (5, 2, 3)
        assert isinstance(jacobi_eval(4, params, 0.3), float)
        with pytest.raises(ParameterError):
            jacobi_all(-1, params, 0.0)


class TestSeries:
    """_jacobi_series, the one sum of simulate, eval_cov and mc_recover_vn."""

    COUNTS = [None, 1, 2, 7, _SERIES_BLOCK - 1, _SERIES_BLOCK + 1, 2 * _SERIES_BLOCK + 1]
    TAILS = [(), (1,), (2,), (1, 1), (3, 3), (2, 1, 1)]

    @pytest.mark.parametrize("params", GEOM_PAIRS)
    @pytest.mark.parametrize("N", [0, 1, 5, 40])
    def test_equals_one_add_per_degree_onto_zeros(self, params, N):
        """Bit for bit and sign of zero for sign of zero, for a 0-d x (count None), one
        abscissa, one value, and counts at the block seams."""
        rng = np.random.default_rng(N)
        for count, tail in itertools.product(self.COUNTS, self.TAILS):
            x = rng.uniform(-1.0, 1.0, () if count is None else count)
            mixed = rng.standard_normal((N + 1,) + tail) * 0.7 ** np.arange(N + 1.0).reshape(
                (N + 1,) + (1,) * len(tail))
            mixed[rng.random(mixed.shape) < 0.2] = -0.0
            for coeffs in (mixed, np.full(mixed.shape, -0.0)):
                steps = _recurrence(N, params.alpha, params.beta)
                got = _jacobi_series(N, params, x, coeffs, steps)
                want = jacobi_series_per_degree(N, params, x, coeffs)
                assert got.shape == want.shape == x.shape + tail
                assert np.array_equal(got, want) and np.array_equal(
                    np.signbit(got), np.signbit(want)), (count, tail)

    @pytest.mark.parametrize("params", GEOM_PAIRS)
    def test_steps_of_a_higher_degree_serve_every_lower_one(self, params):
        """A model holds one recurrence to its stored degree for every truncation."""
        steps = _recurrence(40, params.alpha, params.beta)
        rng = np.random.default_rng(5)
        for N, count in itertools.product([0, 1, 5, 39, 40], [None, 1, 7]):
            x = rng.uniform(-1.0, 1.0, () if count is None else count)
            coeffs = rng.standard_normal((N + 1, 2))
            want = _jacobi_series(N, params, x, coeffs, _recurrence(N, params.alpha, params.beta))
            assert np.array_equal(_jacobi_series(N, params, x, coeffs, steps), want), (N, count)


class TestRecurrenceRetention:
    def test_calls_keep_no_recurrence(self):
        """Each call builds the steps it reads and keeps none of them: three calls of degree
        2 x 10^4 would otherwise leave about 3.5 MB each behind (35 MB each at 2 x 10^5)."""
        jacobi_eval(3, JacobiParams(1, 0), 0.5)  # first-use allocations outside the trace
        tracemalloc.start()
        try:
            for n in (20_000, 20_001, 20_002):
                jacobi_eval(n, JacobiParams(1, 0), 0.5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1_000_000


class TestHighDegree:
    XS = [1 - 1e-9, 1 - 1e-5, 0.999, -0.999, -1 + 1e-7, 0.3]

    @pytest.mark.parametrize("n", [500, 600])
    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (-0.5, -0.5), (3.5, 1.5), (1.0, 0.0)])
    def test_jacobi_all_matches_mpmath(self, n, alpha, beta):
        """Within 1e-11 of max |P_n| on [-1, 1], which for max(a, b) >= -1/2 is
        attained at an endpoint (Szego, Theorem 7.32.1)."""
        mpmath = pytest.importorskip("mpmath")
        got = jacobi_all(n, JacobiParams(alpha, beta), np.array(self.XS))[n]
        with mpmath.workdps(50):
            want = [mpmath.jacobi(n, alpha, beta, mpmath.mpf(x)) for x in self.XS]
            scale = max(abs(mpmath.jacobi(n, alpha, beta, x)) for x in (-1, 1))
            err = max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want)) / scale
        assert err <= 1e-11


class TestAtOne:
    def test_legendre_is_one(self):
        assert jacobi_at_one(5, JacobiParams(0, 0)) == pytest.approx(1.0, rel=1e-14)

    def test_reduces_to_alpha_plus_one(self):
        assert jacobi_at_one(1, JacobiParams(2.5, 0)) == pytest.approx(3.5, rel=1e-14)

    def test_gamma_ratio(self):
        # Gamma(10)/(2 Gamma(8)) = 362880/10080
        assert jacobi_at_one(2, JacobiParams(7, 3)) == pytest.approx(36.0, rel=1e-14)

    @pytest.mark.parametrize("params", GEOM_PAIRS)
    def test_consistent_with_eval(self, params):
        for n in range(0, 51, 5):
            assert jacobi_at_one(n, params) == pytest.approx(
                jacobi_eval(n, params, 1.0), rel=1e-12
            )


class TestGammaRatiosAtHighDegree:
    """P_n(1) and ||P_n||^2 within 1e-12 of mpmath from degree 10^5 to 10^15, where the
    lgamma terms, each of size n log n, cancel."""

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, -0.5), (1.0, 0.0), (3.0, 1.0)])
    @pytest.mark.parametrize("n", [10**k for k in range(5, 16)])
    def test_matches_mpmath(self, n, alpha, beta):
        mpmath = pytest.importorskip("mpmath")
        params = JacobiParams(alpha, beta)
        with mpmath.workdps(50):
            a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(n)
            lg = mpmath.loggamma
            at_one = mpmath.exp(lg(x + a + 1) - lg(x + 1) - lg(a + 1))
            norm = 2 ** (a + b + 1) / (2 * x + a + b + 1) * mpmath.exp(
                lg(x + a + 1) + lg(x + b + 1) - lg(x + 1) - lg(x + a + b + 1))
            for got, want in ((jacobi_at_one(n, params), at_one),
                              (jacobi_norm_constant(n, params), norm)):
                assert abs(got - want) <= 1e-12 * want, (got, want)

    def test_projC4_at_one_is_not_one_at_10_16(self):
        # (n + 1) exactly: lgamma(n + 2) - lgamma(n + 1) cancelled to 0 at this degree
        assert jacobi_at_one(10**16, JacobiParams(1.0, 0.0)) == pytest.approx(1e16, rel=1e-12)


class TestNormalized:
    def test_one_at_one(self):
        for params in GEOM_PAIRS:
            assert jacobi_normalized(9, params, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_degree_one_legendre(self):
        assert jacobi_normalized(1, JacobiParams(0, 0), 0.25) == pytest.approx(0.25)

    def test_at_minus_one_via_swap(self):
        # P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x)
        want = jacobi_eval(2, JacobiParams(3, 7), 1.0) / 36.0
        assert jacobi_normalized(2, JacobiParams(7, 3), -1.0) == pytest.approx(
            want, rel=1e-12
        )

    @pytest.mark.parametrize("params", GEOM_PAIRS)
    def test_bounded_by_one(self, params):
        xs = np.linspace(-1, 1, 200)
        for n in range(51):
            vals = jacobi_normalized(n, params, xs)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-10


class TestNormConstant:
    def test_legendre_values(self):
        assert jacobi_norm_constant(0, JacobiParams(0, 0)) == pytest.approx(2.0, rel=1e-14)
        assert jacobi_norm_constant(1, JacobiParams(0, 0)) == pytest.approx(2 / 3, rel=1e-14)

    def test_chebyshev_limit(self):
        # alpha = beta = -1/2: the degree-0 norm is pi
        assert jacobi_norm_constant(0, JacobiParams(-0.5, -0.5)) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_against_quadrature(self):
        for params in GEOM_PAIRS:
            rule = gauss_jacobi(12, params)
            for j in range(6):
                pj = jacobi_eval(j, params, rule.nodes)
                got = float(rule.weights @ (pj * pj))
                assert got == pytest.approx(
                    jacobi_norm_constant(j, params), rel=1e-11
                )

    def test_cross_terms_vanish(self):
        for params in GEOM_PAIRS:
            rule = gauss_jacobi(12, params)
            for i in range(6):
                for j in range(6):
                    if i == j:
                        continue
                    pi_ = jacobi_eval(i, params, rule.nodes)
                    pj = jacobi_eval(j, params, rule.nodes)
                    got = float(rule.weights @ (pi_ * pj))
                    assert abs(got) <= 1e-10 * jacobi_norm_constant(max(i, j), params)


class TestGaussJacobi:
    def test_one_point_legendre(self):
        rule = gauss_jacobi(1, JacobiParams(0, 0))
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], rel=1e-14)

    def test_two_point_legendre(self):
        rule = gauss_jacobi(2, JacobiParams(0, 0))
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14)
        assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-13)

    @pytest.mark.parametrize("params", GEOM_PAIRS + [JacobiParams(-0.5, -0.5)])
    def test_rule_invariants(self, params):
        rule = gauss_jacobi(9, params)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.all(rule.nodes > -1) and np.all(rule.nodes < 1)
        assert rule.weights.sum() == pytest.approx(
            weight_mass(params.alpha, params.beta), rel=1e-12
        )

    @pytest.mark.parametrize("params", GEOM_PAIRS)
    @pytest.mark.parametrize("order", [3, 7, 14])
    def test_exactness_up_to_degree(self, params, order):
        rule = gauss_jacobi(order, params)
        u = (1.0 + rule.nodes) / 2.0
        for p in range(2 * order):
            got = float(rule.weights @ (u**p))
            want = shifted_monomial_integral(p, params.alpha, params.beta)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("order, weight_rel", [(20, 1e-10), (61, 1e-9), (150, None)])
    def test_matches_scipy_roots(self, order, weight_rel):
        # (-1/2, -1/2), where a + b = -1, is the case the closed-form matrix special-cased
        for params in GEOM_PAIRS + [JacobiParams(-0.5, -0.5)]:
            rule = gauss_jacobi(order, params)
            with np.errstate(invalid="ignore"):  # scipy divides 0/0 at a + b = -1
                x, w = sps.roots_jacobi(order, params.alpha, params.beta)
            assert rule.nodes == pytest.approx(x, abs=1e-12)
            if weight_rel is not None:
                assert rule.weights == pytest.approx(w, rel=weight_rel)

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            gauss_jacobi(0, JacobiParams(0, 0))

    @pytest.mark.parametrize("order", [-1, 2.5, math.nan, math.inf])
    def test_non_natural_order(self, order):
        with pytest.raises(ParameterError, match="quadrature order must be"):
            gauss_jacobi(order, JacobiParams(0, 0))

    def test_integral_float_order(self):
        rule = gauss_jacobi(3.0, JacobiParams(0, 0))
        assert np.array_equal(rule.nodes, gauss_jacobi(3, JacobiParams(0, 0)).nodes)


class TestDegreeGate:
    @pytest.mark.parametrize("n", [True, False, np.True_, np.False_])
    def test_bools_are_not_degrees(self, n):
        with pytest.raises(ParameterError, match="degree must be a nonnegative integer"):
            jacobi_at_one(n, JacobiParams(0, 0))
        with pytest.raises(ParameterError, match="degree must be a nonnegative integer"):
            jacobi_all(n, JacobiParams(0, 0), 0.5)

    @pytest.mark.parametrize("n", ["2", None, [2], 2 + 0j])
    def test_non_numbers_are_parameter_errors(self, n):
        with pytest.raises(ParameterError, match="degree must be a nonnegative integer"):
            jacobi_norm_constant(n, JacobiParams(0, 0))

    @pytest.mark.parametrize("n", [2.0, np.float64(2.0), np.int64(2)])
    def test_whole_numbers_stay_degrees(self, n):
        assert jacobi_at_one(n, JacobiParams(1, 0)) == jacobi_at_one(2, JacobiParams(1, 0))
