import array
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofield import (
    DomainError,
    IsoFieldError,
    ModelError,
    PureSpatial,
    SeparableScalar,
    SeriesModel,
    TailEnvelope,
    UsageError,
    VectorMA1,
    a_constant,
    angular_power_spectrum,
    dim_eigenspace,
    empirical_cov,
    eval_cov,
    jacobi_eval,
    mc_funk_hecke,
    parse_space,
    recover_coefficients,
    replicate_seeds,
    sample_uniform_batch,
    simulate_spatial,
    simulate_spatiotemporal,
    truncation_bound,
    validate_spatial,
    validate_spatiotemporal,
)
from isofield.errors import NumericError, ParameterError
from isofield.jacobi import _SERIES_BLOCK, jacobi_at_one
from isofield.spectral import INTEGER_LAGS, REAL_LAGS, SPATIAL, ZERO_LAG, factor_coefficients
from tests.oracles import (
    eval_cov_per_degree, ma1_lag_cov_mc, random_psd, validate_spatiotemporal_per_degree,
)

S2 = parse_space("sphere:2")
LAGS = [-2.0, -1.0, 0.0, 1.0, 2.0]


def scalar_model(bs, tail=None):
    return SeriesModel(S2, 1, [np.array([[b]]) for b in bs], tail=tail)


def ma1_model(seed=0, degrees=3, m=2):
    rng = np.random.default_rng(seed)
    phi = 0.6 * rng.standard_normal((m, m))
    sigmas = [random_psd(rng, m) for _ in range(degrees)]
    return SeriesModel(S2, m, sigmas, VectorMA1(phi))


class LopsidedKernel:
    # deliberately violates B(-t) = B(t)^T at lag 1
    domain = "integers"

    def coeff_at(self, n, t, coeffs):
        if t == 1.0:
            return 0.5 * coeffs[n]
        if t == -1.0:
            return 0.25 * coeffs[n]
        return coeffs[n] if t == 0.0 else np.zeros_like(coeffs[n])


class OverflowingKernel:
    # B(0) = B; away from lag 0, B + [[0, 1.5e308], [-1.5e308, 0]] ("skew") or 1e308 B
    domain = "reals"

    def __init__(self, kind):
        self.kind = kind

    def coeff_at(self, n, t, coeffs):
        if t == 0.0:
            return coeffs[n]
        with np.errstate(over="ignore"):
            if self.kind == "skew":
                return coeffs[n] + np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
            return 1e308 * coeffs[n]


class ExplosiveKernel:
    # symmetric in lag but r(t) = 2^|t| is not a correlation
    domain = "integers"

    def coeff_at(self, n, t, coeffs):
        return 2.0 ** abs(t) * coeffs[n]


class TestValidateSpatial:
    def test_diagonal_nonnegative_is_valid(self):
        model = SeriesModel(S2, 2, [np.diag([1.0, 0.5]), np.diag([0.2, 0.0])])
        report = validate_spatial(model)
        assert report.valid and report.violations == []

    def test_indefinite_coefficient_flagged(self):
        bad = np.diag([1.0, -0.1])
        model = SeriesModel(S2, 2, [np.eye(2), bad])
        report = validate_spatial(model)
        assert not report.valid
        assert any(v.kind == "indefinite" and v.degree == 1 for v in report.violations)

    def test_asymmetric_coefficient_flagged(self):
        model = SeriesModel(S2, 2, [np.array([[1.0, 0.3], [0.0, 1.0]])])
        report = validate_spatial(model)
        assert any(v.kind == "asymmetric" and v.degree == 0 for v in report.violations)

    def test_scalar_sequence_valid(self):
        assert validate_spatial(scalar_model([1.0, 0.5, 0.25])).valid

    def test_nonfinite_is_divergent(self):
        report = validate_spatial(scalar_model([np.inf]))
        assert any(v.kind == "divergent" for v in report.violations)

    def test_nonfinite_coefficient_reported_once(self):
        report = validate_spatial(scalar_model([1.0, np.nan]))
        assert [v.as_dict() for v in report.violations] == [
            {"degree": 1, "lag": "spatial", "kind": "divergent", "magnitude": math.inf}
        ]

    def test_violation_list_in_degree_order(self):
        coeffs = [np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]), np.diag([1.0, -0.5]),
                  np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [0.1, -3.0]]),
                  np.array([[np.inf, 1.0], [1.0, 1.0]]), 1e-3 * np.eye(2)]
        report = validate_spatial(SeriesModel(S2, 2, coeffs))
        assert [(v.degree, v.lag, v.kind) for v in report.violations] == [
            (1, "spatial", "asymmetric"), (2, "spatial", "indefinite"),
            (3, "spatial", "divergent"), (4, "spatial", "asymmetric"),
            (4, "spatial", "indefinite"), (5, "spatial", "divergent"),
        ]
        assert [v.magnitude for v in report.violations][:3] == [0.3, -0.5, math.inf]
        assert report.violations[4].magnitude == pytest.approx(-1.0 - math.sqrt(4 + 1.05**2))

    def test_ma1_lag_zero_sum_divergent(self):
        # Each Sigma_n and each B_n(0) = 2.44 Sigma_n is finite, and so is
        # sum ||Sigma_n||, but sum ||B_n(0)|| P_n(1) overflows.
        sigmas = [0.4e308 * np.eye(2), 0.4e308 * np.eye(2)]
        assert validate_spatial(SeriesModel(S2, 2, sigmas)).valid
        model = SeriesModel(S2, 2, sigmas, VectorMA1(1.2 * np.eye(2)))
        for report in (validate_spatial(model), validate_spatiotemporal(model, [0.0, 1.0])):
            assert [v.as_dict() for v in report.violations] == [
                {"degree": 1, "lag": "spatial", "kind": "divergent", "magnitude": math.inf}
            ]

    def test_bad_envelope_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            TailEnvelope(1.0, 1.0)
        with pytest.raises(ParameterError):
            TailEnvelope(-1.0, 0.5)


class TestModelArguments:
    @pytest.mark.parametrize("m, coeffs", [(0, np.zeros((1, 0, 0))), (1.0, [[[1.0]]]),
                                           (True, [[[1.0]]]), (-1, [[[1.0]]]), ("1", [[[1.0]]])])
    def test_m_must_be_a_positive_integer(self, m, coeffs):
        # m = 0 once built and failed in simulate_spatial as numpy's zero-size reduction,
        # m = 1.0 in eval_cov as a bare TypeError
        with pytest.raises(ParameterError, match="m must be a positive integer"):
            SeriesModel(S2, m, coeffs)

    def test_numpy_integer_m_is_stored_as_int(self):
        model = SeriesModel(S2, np.int64(2), [np.eye(2)])
        assert type(model.m) is int and model.m == 2

    def test_a_model_needs_a_coefficient_matrix(self):
        with pytest.raises(ParameterError, match="a model needs at least one coefficient matrix"):
            SeriesModel(S2, 1, [])

    @pytest.mark.parametrize("phi", [np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 2))])
    def test_ma1_phi_must_be_square(self, phi):
        with pytest.raises(ParameterError, match="moving-average matrix must be square, got"):
            VectorMA1(phi)

    def test_ma1_phi_must_match_m(self):
        with pytest.raises(ParameterError,
                           match=r"moving-average matrix shape \(3, 3\) does not match m=2"):
            SeriesModel(S2, 2, [np.eye(2)], VectorMA1(0.1 * np.eye(3)))


class TestValidateSpatioTemporal:
    def test_ma1_family_valid(self):
        report = validate_spatiotemporal(ma1_model(), LAGS)
        assert report.valid

    def test_ar1_over_valid_spatial_is_valid(self):
        model = SeriesModel(
            S2, 2, [np.eye(2), 0.5 * np.eye(2)], SeparableScalar("ar1", 0.5)
        )
        assert validate_spatiotemporal(model, LAGS).valid

    def test_tampered_kernel_flagged_asymmetric(self):
        model = SeriesModel(S2, 2, [np.eye(2)], LopsidedKernel())
        report = validate_spatiotemporal(model, LAGS)
        assert not report.valid
        assert any(v.kind == "asymmetric" for v in report.violations)

    def test_explosive_correlation_flagged_indefinite(self):
        model = SeriesModel(S2, 1, [np.eye(1)], ExplosiveKernel())
        report = validate_spatiotemporal(model, LAGS)
        assert any(v.kind == "indefinite" for v in report.violations)

    def test_probe_grid_preconditions(self):
        model = ma1_model()
        with pytest.raises(UsageError):
            validate_spatiotemporal(model, [])
        with pytest.raises(UsageError):
            validate_spatiotemporal(model, [1.0, 2.0])

    def test_integer_domain_rejects_real_lags(self):
        with pytest.raises(UsageError):
            validate_spatiotemporal(ma1_model(), [0.0, 0.5])

    def test_model_validate_default_grid(self):
        model = ma1_model()
        assert model.validate() == validate_spatiotemporal(model, LAGS)
        tampered = SeriesModel(S2, 2, [np.eye(2)], LopsidedKernel())
        assert tampered.validate() == validate_spatiotemporal(tampered, LAGS)
        assert tampered.validate([0.0, 1.0]) == validate_spatiotemporal(tampered, [0.0, 1.0])

    def test_model_validate_on_lag_zero_takes_lag_zero_only(self):
        bad = SeriesModel(S2, 2, [np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
        for lags in (None, [0.0], [-0.0, 0]):
            assert bad.validate(lags) == validate_spatial(bad)
        for lags in ([5.0, 7.0], [0.0, 1.0], [math.nan]):
            with pytest.raises(UsageError, match="lag"):
                bad.validate(lags)
        with pytest.raises(UsageError, match="^lag 5.0 is not 0, and a purely spatial model"):
            bad.validate([0.0, 5.0])

    def test_model_validate_rejects_an_empty_lag_list_on_every_domain(self):
        # the lag-0 domain returned validate_spatial's report for []
        for model in (SeriesModel(S2, 2, [np.eye(2)]), ma1_model()):
            for lags in ([], ()):
                with pytest.raises(UsageError, match="^probe_lags must be nonempty$"):
                    model.validate(lags)

    def test_ar1_coefficient_domain(self):
        with pytest.raises(ParameterError):
            SeparableScalar("ar1", 1.0)
        with pytest.raises(ParameterError):
            SeparableScalar("exponential", 0.0)
        with pytest.raises(ParameterError):
            SeparableScalar("brownian", 0.5)
        for kind, bad in (("ar1", math.nan), ("exponential", math.inf),
                          ("exponential", math.nan)):
            with pytest.raises(ParameterError):
                SeparableScalar(kind, bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                VectorMA1(np.array([[0.5, 0.0], [bad, 0.5]]))


def _validate_outcome(validate, model, lags) -> str:
    """The repr of a validity report's dict, or the text of its UsageError."""
    try:
        return repr(validate(model, lags).as_dict())
    except UsageError as exc:
        return f"UsageError: {exc}"


KERNELS = {
    "ar1": lambda m: SeparableScalar("ar1", -0.6),
    "exponential": lambda m: SeparableScalar("exponential", 0.8),
    "ma1": lambda m: VectorMA1(0.7 * np.random.default_rng(m).standard_normal((m, m))),
    "pure_spatial": lambda m: PureSpatial(),
    "zero_lag": lambda m: PureSpatial(ZERO_LAG),  # a spatial model's kernel
    "lopsided": lambda m: LopsidedKernel(),
    "explosive": lambda m: ExplosiveKernel(),
}
GRIDS = [
    [-2.0, -1.0, 0.0, 1.0, 2.0],
    [0.0, 1.0, 1.0, 0.0, 3.0, -2.0],  # duplicates
    [-0.0, 1.0, -1.0, 2.0],  # zero given as -0.0
    [0.0, -0.0, 2.0],
    [0.0, 0.3, -0.7, 1.9, -2.25, 0.05],  # irregular real lags
    [0.0, 1.0, 0.5, -1.5],  # a non-integer lag: integer domains name the first one
    [0.0],
    [1.0, 2.0],
    [],
]


def _cov_table_model():
    """projC:4, m = 3, N = 60, exponential kernel: the benchmark's cov_table model."""
    rng = np.random.default_rng(7)
    space = parse_space("projC:4")
    coeffs = [0.85**n / jacobi_at_one(n, space.geom) * random_psd(rng, 3) for n in range(61)]
    return SeriesModel(space, 3, coeffs, SeparableScalar("exponential", 1.3))


def _coefficient_sets(m, rng):
    """Valid, indefinite and (for m > 1) asymmetric coefficient stacks."""
    valid = [random_psd(rng, m) for _ in range(3)]
    indefinite = [valid[0], valid[1] - 2.0 * np.eye(m), valid[2]]
    sets = {"valid": valid, "indefinite": indefinite}
    if m > 1:
        lopsided = valid[1].copy()
        lopsided[0, 1] += 0.3
        sets["asymmetric"] = [valid[0], lopsided, valid[2]]
    return sets


class TestLagTable:
    """validate_spatiotemporal reads one table of B_n(s) per distinct lag; its reports
    and errors equal the reference that calls the kernel per (degree, lag)."""

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_reports_equal_the_per_degree_reference(self, kind):
        rng = np.random.default_rng(2024)
        for m in (1, 2, 3):
            for label, coeffs in _coefficient_sets(m, rng).items():
                model = SeriesModel(S2, m, coeffs, KERNELS[kind](m))
                for lags in GRIDS:
                    got = _validate_outcome(validate_spatiotemporal, model, lags)
                    want = _validate_outcome(validate_spatiotemporal_per_degree, model, lags)
                    assert got == want, (kind, m, label, lags)

    @pytest.mark.parametrize("phi", [0.5, 1.2])
    def test_ma1_near_overflow_equals_the_reference(self, phi):
        # Sigma = 1e308 I: B(0) = (1 + phi^2) Sigma is finite at 0.5 and overflows at 1.2
        model = SeriesModel(S2, 2, [1e308 * np.eye(2)] * 2, VectorMA1(phi * np.eye(2)))
        got = _validate_outcome(validate_spatiotemporal, model, LAGS)
        assert got == _validate_outcome(validate_spatiotemporal_per_degree, model, LAGS)
        assert ("'degree': 0, 'lag': 'spatial', 'kind': 'divergent'" in got) == (phi > 1.0)

    def test_cov_table_shaped_model_equals_the_reference(self):
        # projC:4, m = 3, N = 60, 41 regular real lags: the benchmark's validate step
        model = _cov_table_model()
        lags = [0.17 * k for k in range(-20, 21)]
        report = validate_spatiotemporal(model, lags)
        assert report.valid
        assert repr(report.as_dict()) == repr(
            validate_spatiotemporal_per_degree(model, lags).as_dict())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_probe_lag_is_named(self, bad):
        # inf - inf = nan made every Gram non-finite, so an indefinite model read valid
        model = SeriesModel(S2, 2, [np.diag([1.0, -0.5])],
                            SeparableScalar("exponential", 1.0))
        with pytest.raises(UsageError, match=f"probe lag {bad} is not finite"):
            validate_spatiotemporal(model, [0.0, bad])
        assert not validate_spatiotemporal(model, [0.0, 1.0]).valid

    @pytest.mark.parametrize("lags", [[0.0, 1e308, -1e308], [-1e308, 0.0, 1e308, 5.0]])
    def test_overflowing_lag_difference_names_both_lags(self, lags):
        # 1e308 - (-1e308) is inf: the message named "lag inf", a lag never given
        model = SeriesModel(S2, 1, [np.eye(1)], SeparableScalar("exponential", 1.0))
        with pytest.raises(UsageError,
                           match=r"^probe lags 1e\+308 and -1e\+308 differ by more than a float"):
            validate_spatiotemporal(model, lags)
        assert validate_spatiotemporal(model, [0.0, 8e307, -8e307]).valid

    def test_one_coeff_at_call_per_distinct_lag(self, monkeypatch):
        model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)],
                            SeparableScalar("exponential", 1.0))
        calls = []
        read = SeriesModel.coeff_at
        monkeypatch.setattr(SeriesModel, "coeff_at",
                            lambda self, n, t=0.0: calls.append((n, t)) or read(self, n, t))
        validate_spatiotemporal(model, [0.0, 0.5, 1.25])
        # the lag-0 analysis reads B(0), then the table each t_i - t_j, in first-read order
        table_lags = [0.0, -0.5, -1.25, 0.5, -0.75, 1.25, 0.75]
        assert calls == [(slice(None), s) for s in [0.0] + table_lags]
        assert len(set(table_lags)) == len(table_lags)

    def test_grid_over_the_cap_is_rejected_before_the_table(self, monkeypatch):
        # (N+1) m^2 = 549: 131 irregular lags may need 131*130+1 differences of
        # 549 + 32 values, under MAX_LAG_TABLE; 132 lags go just over it
        model = _cov_table_model()

        class Admitted(Exception):
            pass

        def first_read(self, n, t=0.0):
            raise Admitted

        monkeypatch.setattr(SeriesModel, "coeff_at", first_read)
        lags = [0.0] + np.random.default_rng(3).uniform(-3.0, 3.0, 131).tolist()
        for count in (41, 120, 131):  # up to the most lags the cap admits
            with pytest.raises(Admitted):
                validate_spatiotemporal(model, lags[:count])
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="a probe grid of 132 distinct lags"):
                validate_spatiotemporal(model, lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the table would hold 17,293 x 549 float64s, 76 MB

    def test_overflowing_mismatch_reads_inf_without_a_warning(self):
        # B - B^T = 1.5e308 + 1.5e308 overflows: the lag-0 report, with no grid probe
        model = SeriesModel(S2, 2, [[[1.0, 1.5e308], [-1.5e308, 1.0]]],
                            SeparableScalar("exponential", 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_spatiotemporal(model, LAGS)
        assert [v.as_dict() for v in report.violations] == [
            {"degree": 0, "lag": "spatial", "kind": "asymmetric", "magnitude": math.inf}]
        assert report == validate_spatial(model)
        want = validate_spatiotemporal_per_degree(model, LAGS)
        assert repr(report.as_dict()) == repr(want.as_dict())

    @pytest.mark.parametrize("kind", ["skew", "overflow"])
    def test_overflowing_lag_table_of_a_user_kernel_reads_inf_without_a_warning(self, kind):
        # B = 10 I passes at lag 0; away from it the table holds B + S with
        # S = [[0, 1.5e308], [-1.5e308, 0]], whose mismatch B(-t) - B(t)^T = 2S overflows,
        # or 1e308 B, which overflows itself
        model = SeriesModel(S2, 2, [10.0 * np.eye(2)], OverflowingKernel(kind))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_spatiotemporal(model, LAGS)
        want = "asymmetric" if kind == "skew" else "divergent"
        assert [(v.degree, v.lag, v.kind, v.magnitude) for v in report.violations] == [
            (0, t, want, math.inf) for t in LAGS if t != 0.0]
        with np.errstate(over="ignore"):
            oracle = validate_spatiotemporal_per_degree(model, LAGS)
        assert repr(report.as_dict()) == repr(oracle.as_dict())

    @pytest.mark.parametrize("kind, param", [("ar1", 0.0), ("exponential", 800.0)])
    def test_zero_correlation_of_non_finite_coefficient_is_divergent(self, kind, param):
        # r(t) = 0 times inf is nan: a divergent degree, with no warning
        model = SeriesModel(S2, 1, [np.eye(1), [[math.inf]]], SeparableScalar(kind, param))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_spatiotemporal(model, [0.0, 1.0])
        assert {(v.degree, v.kind) for v in report.violations} == {(1, "divergent")}


def _coefficient(kind, m, rng):
    """One m x m coefficient: PSD, rank-deficient (rank m - 1), indefinite, asymmetric
    (for m > 1) or with one non-finite entry."""
    if kind == "rank_deficient":
        a = rng.standard_normal((m, m - 1))
        return a @ a.T
    b = random_psd(rng, m)
    if kind == "indefinite":
        b -= 2.0 * np.eye(m)
    elif kind == "asymmetric":
        b[0, -1] += 0.3
    elif kind == "non_finite":
        b[rng.integers(m), rng.integers(m)] = rng.choice([math.inf, -math.inf, math.nan])
    return b


@st.composite
def _models_and_grids(draw):
    """A small exponential, ar1 or ma1 model and a probe grid in its lag domain."""
    kernel = draw(st.sampled_from(["exponential", "ar1", "ma1"]))
    m = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(
        ["psd", "rank_deficient", "indefinite", "asymmetric", "non_finite"]), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = [_coefficient(kind, m, rng) for kind in kinds]
    if kernel == "exponential":
        temporal = SeparableScalar(kernel, draw(st.floats(0.05, 5.0)))
        lags = draw(st.lists(st.floats(-3.0, 3.0), max_size=5))
    else:
        temporal = (SeparableScalar(kernel, draw(st.floats(-0.95, 0.95))) if kernel == "ar1"
                    else VectorMA1(rng.uniform(-1.5, 1.5, (m, m))))
        lags = [float(k) for k in draw(st.lists(st.integers(-3, 3), max_size=5))]
    lags.insert(draw(st.integers(0, len(lags))), draw(st.sampled_from([0.0, -0.0])))
    return SeriesModel(S2, m, coeffs, temporal), lags


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_models_and_grids())
def test_reports_equal_the_per_degree_reference_on_generated_models(model_and_lags):
    model, lags = model_and_lags
    got = _validate_outcome(validate_spatiotemporal, model, lags)
    assert got == _validate_outcome(validate_spatiotemporal_per_degree, model, lags)


@st.composite
def _built_in_models_and_grids(draw):
    """A model of a built-in kernel over valid, indefinite, asymmetric or near-tolerance
    (diag(1, ..., -k 1e-10)) stacks, and a probe grid in its lag domain (None: the default)."""
    kernel = draw(st.sampled_from(["spatial", "pure_spatial", "exponential", "ar1", "ma1"]))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = []
    for kind in draw(st.lists(st.sampled_from(
            ["psd", "rank_deficient", "indefinite", "asymmetric", "near_tolerance"]),
            min_size=1, max_size=3)):
        if kind == "near_tolerance":
            coeffs.append(np.diag([1.0] * (m - 1) + [-1e-10 * draw(st.integers(0, 20))]))
        else:
            coeffs.append(_coefficient(kind, m, rng))
    if kernel == "exponential":
        temporal = SeparableScalar(kernel, draw(st.floats(0.05, 5.0)))
    elif kernel == "ar1":
        temporal = SeparableScalar(kernel, draw(st.floats(-0.95, 0.95)))
    elif kernel == "ma1":
        temporal = VectorMA1(rng.uniform(-1.5, 1.5, (m, m)))
    else:
        temporal = SPATIAL if kernel == "spatial" else PureSpatial()
    model = SeriesModel(S2, m, coeffs, temporal)
    if kernel == "spatial" or draw(st.booleans()):
        return model, None
    if model.domain == INTEGER_LAGS or draw(st.booleans()):
        lags = [float(k) for k in draw(st.lists(st.integers(-4, 4), max_size=6))]
    else:
        lags = draw(st.lists(st.floats(-3.0, 3.0), max_size=6))
    return model, [0.0] + lags


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_built_in_models_and_grids())
def test_validate_passes_only_what_the_lag_zero_analysis_passes(model_and_lags):
    model, lags = model_and_lags
    report, lag0 = model.validate(lags), factor_coefficients(model)[0]
    assert lag0.valid or report == lag0
    if report.valid:
        assert lag0.valid


class TestEvalCov:
    def test_degree_zero_only_is_constant(self):
        model = SeriesModel(S2, 2, [np.eye(2)])
        for rho in (0.0, 1.0, math.pi):
            assert np.allclose(eval_cov(model, rho), np.eye(2))

    def test_scalar_sphere_partial_sum(self):
        # 1 + 0.5 cos(pi/3) + 0.25 P_2(cos pi/3), P_2(1/2) = -1/8
        model = scalar_model([1.0, 0.5, 0.25])
        want = 1.0 + 0.5 * 0.5 + 0.25 * (-0.125)
        assert eval_cov(model, math.pi / 3)[0, 0] == pytest.approx(want, rel=1e-14)

    def test_ma1_vanishes_beyond_lag_one(self):
        model = ma1_model()
        assert np.allclose(eval_cov(model, 0.7, 2.0), 0.0)
        assert np.allclose(eval_cov(model, 0.7, -3.0), 0.0)

    def test_spatial_model_requires_zero_lag(self):
        with pytest.raises(UsageError):
            eval_cov(scalar_model([1.0]), 0.3, t=1.0)

    @pytest.mark.parametrize("rho", [[[0.1, 0.2], [0.3]], [0.1, [0.2, 0.3]]])
    def test_ragged_distances_are_refused(self, rho):
        with pytest.raises(UsageError, match="rho must be a real number or an array of them$"):
            eval_cov(scalar_model([1.0, 0.5]), rho)

    def test_divergent_series_raises_before_overflow(self):
        # each B_n(0) = 2.44 Sigma_n is finite, but sum ||B_n(0)|| P_n(1) overflows
        model = SeriesModel(S2, 2, [4e307 * np.eye(2)] * 2, VectorMA1(1.2 * np.eye(2)))
        tail = scalar_model([1.0], TailEnvelope(1e308, 0.999999))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="degree 1 lag spatial: divergent"):
                eval_cov(model, 0.5)
            with pytest.raises(ModelError, match="degree 0 lag spatial: divergent"):
                eval_cov(tail, 0.5, trunc=1)  # the gate runs before the truncation check

    def test_integer_domain_rejects_real_lag(self):
        with pytest.raises(UsageError):
            eval_cov(ma1_model(), 0.3, t=0.5)

    @pytest.mark.parametrize("lag", [math.nan, math.inf, -math.inf])
    def test_non_finite_lag_rejected(self, lag):
        # the exponential kernel once returned nan at a nan lag and zeros at an infinite one
        model = SeriesModel(S2, 1, [np.eye(1)], SeparableScalar("exponential", 1.0))
        with pytest.raises(UsageError, match=f"lag {lag} is not finite"):
            eval_cov(model, 0.3, t=lag)

    @pytest.mark.parametrize("lag", [0.5, math.nan, math.inf])
    def test_user_kernel_lags_are_gated_by_the_model(self, lag):
        # LopsidedKernel checks nothing; an integer domain once let all three through
        model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)], LopsidedKernel())
        with pytest.raises(UsageError, match=f"^lag {lag} is not"):
            eval_cov(model, 0.3, lag)
        with pytest.raises(UsageError, match=f"^lag {lag} is not"):
            model.coeff_at(0, lag)

    @pytest.mark.parametrize("kernel", ["spatial", "pure_spatial", "ar1", "exponential", "ma1"])
    def test_lag_sequence_stacks_one_scalar_call_per_lag(self, kernel):
        rng = np.random.default_rng(21)
        kernels = {"spatial": SPATIAL, "pure_spatial": PureSpatial(),
                   "ar1": SeparableScalar("ar1", -0.6),
                   "exponential": SeparableScalar("exponential", 0.7),
                   "ma1": VectorMA1(0.5 * rng.standard_normal((2, 2)))}
        model = SeriesModel(S2, 2, [random_psd(rng, 2, 0.5**n) for n in range(5)],
                            kernels[kernel])
        lags = [0.0, -0.0] if kernel == "spatial" else [0.0, 2.0, -1.0, 1.0, -0.0, 3.0]
        grid = np.linspace(0.0, math.pi, 12)
        for rho in (0.7, np.asarray(1.1), grid, grid.reshape(3, 4)):
            want = np.stack([eval_cov(model, rho, t) for t in lags])
            for seq in (lags, tuple(lags), np.array(lags)):
                got = eval_cov(model, rho, seq)
                assert got.shape == (len(lags), *np.shape(rho), 2, 2)
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phi", [-0.999, -0.6, -1e-3, -0.0, 0.0, 0.3, 0.999999])
    def test_ar1_correlation_bit_equal_to_the_integer_power(self, phi):
        # the integer power phi ** |t| that r(t) once computed, on lags of every scale
        rng = np.random.default_rng(62)
        mags = rng.integers(0, 2**62, 20_000, endpoint=True) >> rng.integers(0, 63, 20_000)
        lags = [float(t) for t in rng.choice([-1, 1], 20_000) * mags] + [2.0**62, -2.0**62]
        kernel = SeparableScalar("ar1", phi)
        got = np.array([kernel.correlation(t) for t in lags])
        want = np.array([phi ** abs(int(round(t))) for t in lags])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, param", [("ar1", -0.6), ("ar1", 0.0), ("exponential", 0.7)])
    def test_correlation_across_an_infinite_gap_is_zero(self, kind, param):
        kernel = SeparableScalar(kind, param)
        assert kernel.correlation(math.inf) == kernel.correlation(-math.inf) == 0.0

    def test_fractional_power_of_a_negative_ar1_coefficient_raises(self):
        # a kernel checks no lag, but never returns a complex number
        with pytest.raises(ValueError):
            SeparableScalar("ar1", -0.5).correlation(0.5)

    def test_trunc_bounds_enforced(self):
        model = scalar_model([1.0, 0.5])
        with pytest.raises(UsageError):
            eval_cov(model, 0.3, trunc=5)
        assert eval_cov(model, 0.3, trunc=0)[0, 0] == 1.0

    def test_transpose_law(self):
        model = ma1_model(seed=3)
        for t in LAGS:
            for rho in (0.0, 0.9, 2.5):
                lhs = eval_cov(model, rho, -t)
                rhs = eval_cov(model, rho, t).T
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_direct_sum_oracle_spatiotemporal(self):
        model = ma1_model(seed=4)
        rho, t = 1.1, 1.0
        x = math.cos(rho)
        want = sum(
            model.coeff_at(n, t) * jacobi_eval(n, S2.geom, x)
            for n in range(model.max_degree + 1)
        )
        assert np.allclose(eval_cov(model, rho, t), want, atol=1e-14)


    def test_array_of_distances_matches_scalar_calls(self):
        rho = np.linspace(0.0, math.pi, 12).reshape(3, 4)
        for model, t in ((ma1_model(seed=6), 1.0), (scalar_model([1.0, 0.5, 0.25]), 0.0)):
            got = eval_cov(model, rho, t)
            assert got.shape == (3, 4, model.m, model.m)
            for idx in np.ndindex(rho.shape):
                assert np.array_equal(got[idx], eval_cov(model, float(rho[idx]), t))

    def test_nan_distance_raises_domain_error(self):
        for bad in (float("nan"), float("inf"), float("-inf"), [0.5, float("inf")]):
            with pytest.raises(DomainError):
                eval_cov(scalar_model([1.0, 0.5]), bad)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_equal_to_the_per_degree_sum(self, m):
        # every built-in kernel on a stack with an all-zero degree and a -0.0 entry in
        # every degree, and on an all -0.0 stack: at rho = 0 each P_n(1) > 0, so a
        # -0.0 entry's terms are all -0.0, and the sum from zeros reads +0.0
        rng = np.random.default_rng(m)
        mixed = rng.standard_normal((6, m, m))
        mixed[2] = 0.0
        mixed[:, 0, -1] = -0.0
        kernels = [(SPATIAL, [0.0]), (PureSpatial(REAL_LAGS), [-1.5, 0.0, 2.0]),
                   (SeparableScalar("exponential", 0.8), [-0.7, 0.0, 1.3]),
                   (SeparableScalar("ar1", -0.4), [-2.0, 0.0, 1.0, 3.0]),
                   (VectorMA1(0.6 * rng.standard_normal((m, m))), [-1.0, 0.0, 1.0, 2.0])]
        grid = np.linspace(0.0, math.pi, 6)
        distances = [0.0, np.asarray(0.9), grid, grid.reshape(2, 3)]
        for coeffs in (mixed, np.full((6, m, m), -0.0)):
            for kernel, lags in kernels:
                model = SeriesModel(S2, m, coeffs, kernel)
                for rho, t, trunc in itertools.product(distances, lags, [None, *range(6)]):
                    got = eval_cov(model, rho, t, trunc)
                    want = eval_cov_per_degree(model, rho, t, trunc)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want) and np.array_equal(
                        np.signbit(got), np.signbit(want)), (kernel, t, trunc)

    @pytest.mark.parametrize("m", [1, 3])
    def test_grid_over_several_blocks_is_bit_equal(self, m):
        rng = np.random.default_rng(5)
        coeffs = [random_psd(rng, m, 0.85**n) for n in range(61)]
        model = SeriesModel(parse_space("projC:4"), m, coeffs, SeparableScalar("exponential", 1.2))
        # two full blocks and one of a single distance
        rho = rng.uniform(0.0, math.pi, 2 * _SERIES_BLOCK + 1)
        for t in (0.0, -0.4):
            got, want = eval_cov(model, rho, t), eval_cov_per_degree(model, rho, t)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_no_distances_give_an_empty_table(self):
        model = SeriesModel(S2, 2, [np.eye(2), 0.5 * np.eye(2)])
        assert eval_cov(model, []).shape == (0, 2, 2)
        assert eval_cov(model, np.zeros((0, 3)), [0.0, 0.0]).shape == (2, 0, 3, 2, 2)

    def test_memory_is_a_small_multiple_of_the_output(self):
        # the (N+1)-degree table and terms are held one block of distances at a time
        model = scalar_model(0.9 ** np.arange(61.0))
        rho = np.linspace(0.0, math.pi, 200_000)
        tracemalloc.start()
        try:
            out = eval_cov(model, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (200_000, 1, 1)
        assert peak <= 4 * out.nbytes


ANTISYMMETRIC = [[0.0, 1e308], [-1e308, 0.0]]  # symmetric part zero: not divergent at lag 0


class TestNonFiniteSums:
    """A finite, non-divergent model whose partial sums overflow: eval_cov and
    truncation_bound raise NumericError, and no RuntimeWarning escapes."""

    def test_eval_cov_names_the_first_distance_and_lag(self):
        # exp(-5) B_n keeps every value finite at lag 5; at lag 0 B_1 + B_2 overflows
        # near rho = 0, where P_1 = P_2 = 1, but not at rho = 3, where they nearly cancel
        model = SeriesModel(S2, 2, [np.eye(2), ANTISYMMETRIC, ANTISYMMETRIC],
                            SeparableScalar("exponential", 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(eval_cov(model, [3.0, 0.0, 1e-4], [5.0, 3.0])).all()
            for rho in ([3.0, 0.0, 1e-4], 0.0):
                with pytest.raises(NumericError, match=r"^the covariance series is not finite "
                                   r"at distance 0\.0 and lag 0\.0$"):
                    eval_cov(model, rho, [5.0, 0.0])
            with pytest.raises(NumericError, match="at distance 1e-300 and lag -0.01$"):
                eval_cov(model, [1e-300, 0.0], [5.0, -0.01])
            assert np.isfinite(eval_cov(model, [0.0, 1e-4], 0.0, trunc=1)).all()

    def test_truncation_bound_that_overflows_raises(self):
        model = SeriesModel(S2, 2, [np.eye(2), ANTISYMMETRIC, ANTISYMMETRIC])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_spatial(model).violations[0].kind == "asymmetric"
            with pytest.raises(NumericError, match="^the tail bound past degree 0 is not finite$"):
                truncation_bound(model, 0)
            assert truncation_bound(model, 1) == 1e308 and truncation_bound(model, 2) == 0.0


class TestEvalCovSymmetrized:
    """C(rho, -t) = C(rho, t)^T: so C(rho, 0) and the symmetrized
    (C(rho, t) + C(rho, -t)) / 2 are symmetric."""

    def test_zero_lag_reduces_to_eval(self):
        model = ma1_model(seed=5)
        cov = eval_cov(model, 0.4, 0.0)
        assert np.array_equal(eval_cov(model, 0.4, -0.0), cov)
        assert np.max(np.abs(cov - cov.T)) <= 1e-12

    def test_result_symmetric_at_lag_one(self):
        model = ma1_model(seed=6)
        forward, backward = eval_cov(model, 0.4, 1.0), eval_cov(model, 0.4, -1.0)
        assert np.max(np.abs(forward - forward.T)) > 1e-3  # a lag-1 MA(1) table is not symmetric
        assert np.max(np.abs(backward - forward.T)) <= 1e-12

    def test_time_symmetric_kernel_equals_plain(self):
        model = SeriesModel(
            S2, 2, [np.eye(2), 0.3 * np.eye(2)], SeparableScalar("ar1", -0.4)
        )
        for t in (0.0, 1.0, 3.0):
            cov = eval_cov(model, 0.8, t)
            assert np.array_equal(eval_cov(model, 0.8, -t), cov)
            assert np.array_equal(cov, cov.T)


class TestTruncationBound:
    def test_zero_without_tail(self):
        model = scalar_model([1.0, 0.5, 0.25])
        assert truncation_bound(model, model.max_degree) == 0.0

    def test_geometric_envelope(self):
        # degrees beyond 3 bounded by sum_{n>=4} 0.5^n = 0.5^4 / (1 - 0.5)
        model = scalar_model([1.0, 0.5, 0.25, 0.125], tail=TailEnvelope(1.0, 0.5))
        partial = sum(0.5**n for n in range(4, 200))
        assert truncation_bound(model, 3) == pytest.approx(partial, rel=1e-12)
        assert truncation_bound(model, 3) == pytest.approx(0.125, rel=1e-12)

    def test_monotone_in_degree(self):
        model = scalar_model([1.0, 0.5, 0.25, 0.125], tail=TailEnvelope(0.3, 0.4))
        bounds = [truncation_bound(model, n) for n in range(5)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_degree_rule(self):
        # a float degree once escaped as TypeError from the slice of degrees
        model = scalar_model([1.0, 0.5, 0.25, 0.125])
        assert truncation_bound(model, 1.0) == truncation_bound(model, 1)
        with pytest.raises(ParameterError, match="truncation degree must be .* got 2.5"):
            truncation_bound(model, 2.5)

    def test_divergent_series_raises(self):
        # a NaN B_1 once escaped as numpy's "SVD did not converge" at N = 0
        model = SeriesModel(S2, 1, [np.eye(1), np.array([[np.nan]])])
        for n in (0, 1):
            with pytest.raises(ModelError, match="degree 1 lag spatial: divergent"):
                truncation_bound(model, n)

    def test_partial_sum_error_bounded(self):
        rng = np.random.default_rng(7)
        model = SeriesModel(S2, 2, [random_psd(rng, 2, 0.5**n) for n in range(6)])
        for rho in (0.1, 1.0, 2.8):
            full = eval_cov(model, rho)
            for n in range(6):
                part = eval_cov(model, rho, trunc=n)
                assert np.max(np.abs(full - part)) <= truncation_bound(model, n) + 1e-12


class TestSpectrum:
    def test_sphere_flat_spectrum(self):
        c = 0.37
        model = SeriesModel(
            S2, 1, [np.array([[(2 * n + 1) * c]]) for n in range(5)]
        )
        for n in range(5):
            assert angular_power_spectrum(model, n)[0, 0] == pytest.approx(c, rel=1e-12)

    def test_degree_zero_identity(self):
        model = scalar_model([0.8, 0.1])
        assert angular_power_spectrum(model, 0)[0, 0] == pytest.approx(0.8)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        model = SeriesModel(S2, 2, [random_psd(rng, 2) for _ in range(4)])
        for n in range(4):
            back = angular_power_spectrum(model, n) * dim_eigenspace(S2, n)
            assert np.max(np.abs(back - model.coeffs[n])) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            angular_power_spectrum(scalar_model([1.0]), 3)

    def test_degree_rule(self):
        # a float degree once escaped as IndexError from the coefficient stack
        model = scalar_model([1.0, 0.5, 0.25])
        assert np.array_equal(angular_power_spectrum(model, 1.0), angular_power_spectrum(model, 1))
        with pytest.raises(ParameterError, match="degree must be a nonnegative integer, got 1.5"):
            angular_power_spectrum(model, 1.5)

    def test_eigenspace_dimension_past_a_float_names_the_degree(self):
        # B_n / inf read 0; the degree-307 entry is unchanged
        model = SeriesModel(parse_space("sphere:1000"), 1, [np.eye(1)] * 309)
        assert angular_power_spectrum(model, 307)[0, 0] == 1.0 / dim_eigenspace(model.space, 307)
        with pytest.raises(NumericError, match="^degree 308: the eigenspace dimension of "
                                               "sphere:1000 overflows$"):
            angular_power_spectrum(model, 308)

    def test_ma1_spectrum_reads_lag_zero(self):
        # Sigma_1 = 0.5, Phi = 0.9: B_1(0) = Sigma_1 + Phi Sigma_1 Phi^T = 0.905, not Sigma_1
        model = SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)], VectorMA1([[0.9]]))
        assert angular_power_spectrum(model, 1)[0, 0] == pytest.approx(0.905 / 3, rel=1e-15)

    @pytest.mark.parametrize("kernel", [SPATIAL, PureSpatial(), SeparableScalar("ar1", 0.6),
                                        SeparableScalar("exponential", 1.5)],
                             ids=["spatial", "pure_spatial", "ar1", "exponential"])
    def test_stored_coefficients_are_lag_zero(self, kernel):
        rng = np.random.default_rng(81)
        coeffs = [random_psd(rng, 2) for _ in range(3)]
        model = SeriesModel(S2, 2, coeffs, kernel)
        for n in range(3):
            want = model.coeffs[n] / dim_eigenspace(S2, n)
            assert np.array_equal(angular_power_spectrum(model, n), want)


class TestRecoverCoefficients:
    def test_constant_covariance(self):
        model = recover_coefficients(lambda rho: np.array([[1.0]]), S2, 1, N=4, order=8)
        assert model.coeffs[0][0, 0] == pytest.approx(1.0, rel=1e-12)
        for n in range(1, 5):
            assert abs(model.coeffs[n][0, 0]) <= 1e-10

    def test_single_degree_picked_out(self):
        space = parse_space("projC:4")
        cov = lambda rho: np.array([[jacobi_eval(2, space.geom, math.cos(rho))]])
        model = recover_coefficients(cov, space, 1, N=5, order=10)
        for n in range(6):
            want = 1.0 if n == 2 else 0.0
            assert model.coeffs[n][0, 0] == pytest.approx(want, abs=1e-10)

    def test_round_trip_random_model(self):
        rng = np.random.default_rng(9)
        truth = SeriesModel(S2, 2, [random_psd(rng, 2, 0.7**n) for n in range(9)])
        got = recover_coefficients(
            lambda rho: eval_cov(truth, rho), S2, 2, N=8, order=12
        )
        for n in range(9):
            assert np.max(np.abs(got.coeffs[n] - truth.coeffs[n])) <= 1e-9

    def test_order_precondition(self):
        with pytest.raises(UsageError):
            recover_coefficients(lambda rho: np.eye(1), S2, 1, N=8, order=8)

    def test_nan_rejected(self):
        with pytest.raises(UsageError):
            recover_coefficients(lambda rho: np.array([[float("nan")]]), S2, 1, 2, 6)

    @pytest.mark.parametrize("N, order", [(8, 9.0), (8.0, 9), (np.int64(8), np.int64(9))])
    def test_whole_number_arguments_are_used_as_ints(self, N, order):
        # order 9.0 passed the quadrature gate and then failed np.empty as a bare TypeError
        got = recover_coefficients(lambda rho: np.eye(1), S2, 1, N=N, order=order)
        want = recover_coefficients(lambda rho: np.eye(1), S2, 1, N=8, order=9)
        assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("m", [1.0, True, 0, np.True_])
    def test_m_is_gated_before_the_covariance_is_called(self, m):
        def cov(rho):
            raise AssertionError("the covariance was called")
        with pytest.raises(ParameterError, match="m must be a positive integer"):
            recover_coefficients(cov, S2, m, N=2, order=3)

    @pytest.mark.parametrize("N, order", [(True, 3), (2, True), (-1, 3), ("2", 3)])
    def test_bools_and_non_numbers_are_not_degrees(self, N, order):
        with pytest.raises(ParameterError, match="(max degree|quadrature order) must be"):
            recover_coefficients(lambda rho: np.eye(1), S2, 1, N=N, order=order)

    def test_cov_table_model_round_trip(self):
        # projC:4, m = 3, N = 60, order 61: the quadrature reads the evaluation recurrence
        model = _cov_table_model()
        got = recover_coefficients(lambda rho: eval_cov(model, rho, 0.0), model.space, 3,
                                   N=60, order=61)
        assert np.max(np.abs(got.coeffs - model.coeffs)) <= 1e-12

    @pytest.mark.parametrize("order", [math.nan, math.inf, 9.5])
    def test_non_integer_order_is_a_parameter_error(self, order):
        # the order is gated as a degree before the order >= N + 1 test, which nan and inf pass
        with pytest.raises(ParameterError, match="quadrature order must be"):
            recover_coefficients(lambda rho: np.eye(1), S2, 1, N=8, order=order)


class TestMA1LagConvention:
    def test_bruteforce_process_oracle(self):
        # cov(Z(t+1), Z(t)) of Z(t) = e(t) + Phi e(t-1) must equal the
        # stored lag +1 matrix Phi Sigma (and its transpose at lag -1).
        rng = np.random.default_rng(10)
        phi = np.array([[0.6, -0.3], [0.2, 0.5]])
        sigma = random_psd(rng, 2) + 0.5 * np.eye(2)
        kernel = VectorMA1(phi)
        est, se = ma1_lag_cov_mc(phi, sigma, lag=1, replicates=300_000, seed=11)
        want = kernel.coeff_at(0, 1.0, [sigma])
        assert np.all(np.abs(est - want) <= 5 * se)
        # the distinction is real: Phi Sigma differs from Sigma Phi^T here
        assert np.max(np.abs(want - want.T)) > 10 * np.max(se)
        est_m, se_m = ma1_lag_cov_mc(phi, sigma, lag=-1, replicates=300_000, seed=12)
        want_m = kernel.coeff_at(0, -1.0, [sigma])
        assert np.all(np.abs(est_m - want_m) <= 5 * se_m)
        assert np.allclose(want_m, want.T)

    def test_lag_zero_and_far_lags(self):
        rng = np.random.default_rng(13)
        phi = 0.4 * rng.standard_normal((2, 2))
        sigma = random_psd(rng, 2)
        kernel = VectorMA1(phi)
        assert np.allclose(
            kernel.coeff_at(0, 0.0, [sigma]), sigma + phi @ sigma @ phi.T
        )
        assert np.allclose(kernel.coeff_at(0, 4.0, [sigma]), 0.0)


class TestScalarPositiveDefiniteness:
    def test_gram_matrix_witness(self):
        model = scalar_model([1.0, 0.6, 0.3, 0.1])
        assert validate_spatial(model).valid
        rng = np.random.default_rng(14)
        pts = list(sample_uniform_batch(S2, 10, rng))
        from isofield import distance

        gram = np.array(
            [[eval_cov(model, distance(S2, a, b))[0, 0] for b in pts] for a in pts]
        )
        w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert w[0] >= -1e-9 * np.trace(gram)


# --------------------------------------------------------------------------
# Argument gates: each of truncation, degree, lag, seed and count has one rule, and
# every consumer of a gate accepts and rejects the same values through it.
# --------------------------------------------------------------------------


def _gate_values(lo, hi, floats):
    """Integers in lo..hi as int, float and, where it holds them, np.int64; then floats,
    bools and the non-finite floats."""
    ints = st.integers(lo, hi)
    int64s = st.integers(max(lo, -2**63), min(hi, 2**63 - 1)).map(np.int64)
    return st.one_of(ints, ints.map(float), int64s, floats, st.booleans(),
                     st.sampled_from([math.nan, math.inf, -math.inf]))


def _accepts(call, value) -> bool:
    """True when call(value) returns, False when it raises an IsoFieldError; anything
    else (a bare TypeError or IndexError, numpy's own ValueError) fails the test."""
    try:
        call(value)
    except IsoFieldError:
        return False
    return True


_GATE_MODEL = scalar_model([1.0, 0.5, 0.25, 0.125])
_GATE_POINTS = np.eye(3)
_X = sample_uniform_batch(S2, 1, np.random.default_rng(5))[0]
_LAG_MODELS = [SeriesModel(S2, 1, [np.eye(1), 0.5 * np.eye(1)], kernel) for kernel in (
    SPATIAL, PureSpatial(), SeparableScalar("ar1", 0.5), SeparableScalar("exponential", 1.0),
    VectorMA1([[0.4]]))]
GATES = {
    # values, then groups of consumers that must agree on every value
    "truncation": (_gate_values(-3, 6, st.floats(-3, 6)), [[
        lambda v: simulate_spatial(_GATE_MODEL, _GATE_POINTS, trunc=v, seed=0),
        lambda v: eval_cov(_GATE_MODEL, 0.5, trunc=v)]]),
    "degree": (_gate_values(-3, 3, st.floats(-3, 3)), [[
        lambda v: truncation_bound(_GATE_MODEL, v),
        lambda v: angular_power_spectrum(_GATE_MODEL, v),
        lambda v: a_constant(S2, v),
        lambda v: dim_eigenspace(S2, v)]]),
    "lag": (st.one_of(_gate_values(-10**6, 10**6, st.floats()),
                      st.sampled_from(["0.5", b"0", "", None])), [[
        lambda v, model=model: eval_cov(model, 0.5, v),
        lambda v, model=model: simulate_spatiotemporal(model, _GATE_POINTS, [v], seed=0)]
        for model in _LAG_MODELS]),
    "seed": (_gate_values(-3, 2**64, st.floats(-3, 10)), [[
        lambda v: simulate_spatial(_GATE_MODEL, _GATE_POINTS, seed=v),
        lambda v: mc_funk_hecke(S2, 1, 1, _X, _X, replicates=10, seed=v),
        lambda v: replicate_seeds(v, 3)]]),
    "count": (_gate_values(-3, 50, st.floats(-3, 50)), [[
        lambda v: sample_uniform_batch(S2, v, np.random.default_rng(0)),
        lambda v: replicate_seeds(0, v)]]),
}


@pytest.mark.parametrize("gate", GATES)
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_consumers_of_a_gate_agree(gate, data):
    values, groups = GATES[gate]
    value = data.draw(values)
    for group in groups:
        assert len({_accepts(call, value) for call in group}) == 1, value


@pytest.mark.parametrize("lag", ["0.5", "0", b"0", "", None, 1j])
@pytest.mark.parametrize("model", _LAG_MODELS, ids=lambda m: m.kernel.kind + "-" + m.domain)
def test_lag_that_is_not_a_real_number_is_rejected_by_every_consumer(model, lag):
    # float() once read text, so "0.5" was the lag 0.5, and None escaped as TypeError;
    # validate_spatiotemporal read its probe lags that way too
    for call in (lambda: model.coeff_at(0, lag), lambda: eval_cov(model, 0.5, lag),
                 lambda: validate_spatiotemporal(model, [lag]),
                 lambda: validate_spatiotemporal(model, [0.0, lag]),
                 lambda: model.validate([lag]), lambda: model.validate([0.0, lag]),
                 lambda: eval_cov(model, 0.5, [0.0, lag]),
                 lambda: simulate_spatiotemporal(model, _GATE_POINTS, [lag], seed=0),
                 lambda: simulate_spatiotemporal(model, _GATE_POINTS, ["0", "1.5"], seed=0)):
        with pytest.raises(UsageError, match=r"^lag .* must be a real number$"):
            call()


@pytest.mark.parametrize("lag", [bytearray(b"0"), memoryview(b"1"), array.array("b", b"1"),
                                 np.bytes_(b"0"), np.array(b"1"), np.array("0"),
                                 np.array("1", dtype=object), np.complex128(1.0)])
@pytest.mark.parametrize("model", _LAG_MODELS, ids=lambda m: m.kernel.kind + "-" + m.domain)
def test_bytes_like_and_numpy_text_lags_are_rejected(model, lag):
    # float() reads any buffer as text, so bytearray(b"1") was the lag 1.0
    real = [simulate_spatiotemporal(model, _GATE_POINTS, [0.0], seed=s) for s in (1, 2)]
    for call in (lambda: model.coeff_at(1, lag), lambda: model.validate([lag]),
                 lambda: model.validate([bytearray(b"0"), memoryview(b"1")]),
                 lambda: model.validate([0.0, lag]),
                 lambda: validate_spatiotemporal(model, [0.0, lag]),
                 lambda: simulate_spatiotemporal(model, _GATE_POINTS, [lag], seed=0),
                 lambda: simulate_spatiotemporal(model, _GATE_POINTS, [0.0, lag], seed=0),
                 lambda: empirical_cov(real, (0, 1), lag)):
        with pytest.raises(UsageError, match=r"^lag .* must be a real number$"):
            call()


@pytest.mark.parametrize("lags", [bytearray(b"0"), bytearray(b"\x00\x01"), memoryview(b"\x00\x01"),
                                  memoryview(b"\x00").cast("c"), b"\x00\x01", "01"])
@pytest.mark.parametrize("model", _LAG_MODELS, ids=lambda m: m.kernel.kind + "-" + m.domain)
def test_text_or_bytes_as_the_whole_lag_list_is_rejected_naming_the_argument(model, lags):
    # bytearray(b"0") as the list was the lag 48, and b"\x00\x01" the lags 0 and 1
    calls = {"probe_lags": (lambda: model.validate(lags),
                            lambda: validate_spatiotemporal(model, lags)),
             "times": (lambda: simulate_spatiotemporal(model, _GATE_POINTS, lags, seed=0),)}
    if np.ndim(lags):  # a str or bytes t is one lag, refused by the lag gate
        calls["t"] = (lambda: eval_cov(model, 0.5, lags),)
    for name, group in calls.items():
        for call in group:
            with pytest.raises(UsageError, match=f"^{name} must be a list of real numbers, "
                                                 f"not a {type(lags).__name__}$"):
                call()


@pytest.mark.parametrize("lags", [[0, 1], (0, 1), np.array([0, 1], dtype=np.uint8),
                                  np.array([0.0, 1.0]), array.array("d", [0, 1]),
                                  array.array("B", [0, 1]), memoryview(array.array("d", [0, 1]))])
def test_numeric_lag_lists_are_accepted(lags):
    model = _LAG_MODELS[3]  # exponential
    assert model.validate(lags).valid
    assert eval_cov(model, 0.5, lags).shape == (2, 1, 1)
    assert simulate_spatiotemporal(model, _GATE_POINTS, lags, seed=0).times == [0.0, 1.0]
