"""Covariance matrix functions as Jacobi series with matrix coefficients.

A purely spatial model is a finite sequence B_0..B_N of symmetric
nonnegative-definite m x m matrices, interpreted as
C(rho) = sum_n B_n P_n(cos rho) with the space's geometric parameters,
optionally extended past degree N by a geometric envelope c*r^n that
dominates ||B_n|| P_n(1) and keeps the tail bound computable.

Every model attaches a temporal kernel to the stored matrices so that
each degree carries a stationary covariance matrix function B_n(t):
a scalar correlation multiplying B_n (separable case), the lag table of a
first-order vector moving average built from per-degree innovation
covariances, or a constant-in-time B_n. A purely spatial model is the
constant kernel restricted to lag 0. The fixed lag convention is
cov(Z(t1), Z(t2)) = B(t1 - t2); for the moving average
Z(t) = e(t) + Phi e(t-1) this puts Phi*Sigma at lag +1 and Sigma*Phi^T at
lag -1, which the brute-force process oracle in the tests pins down.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (INTEGER_LAGS, REAL_LAGS, ZERO_LAG, ModelError, NumericError, ParameterError,
                     UsageError, _check_m, _lag_list, _real, _reals, _require_lag, _sized, _whole)
from .jacobi import (_STEP_WORDS, _jacobi_series, _recurrence, gauss_jacobi, jacobi_all,
                     jacobi_at_one, jacobi_norm_constant)
from .spaces import SpaceParams, a_constant, dim_eigenspace

# Relative floors for symmetry / nonnegative-definiteness under rounding.
SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10

MAX_LAG_TABLE = 10_000_000  # float64 values (80 MB) validate_spatiotemporal may tabulate

DEFAULT_PROBE_LAGS = (-2.0, -1.0, 0.0, 1.0, 2.0)  # SeriesModel.validate's grid for probe_lags=None


@dataclass(frozen=True)
class TailEnvelope:
    """Geometric bound c * r^n on ||B_n|| P_n(1) past the stored degrees; c and r by the
    real-number rule."""

    c: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "c", _real(self.c, "envelope scale", ParameterError))
        object.__setattr__(self, "r", _real(self.r, "envelope ratio", ParameterError))
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ParameterError(f"envelope scale must be finite and >= 0, got {self.c}")
        if not (0.0 < self.r < 1.0):
            raise ParameterError(f"envelope ratio must lie in (0, 1), got {self.r}")

    def tail_sum(self, first_degree: int) -> float:
        """sum_{n >= first_degree} c * r^n = c * r^first / (1 - r)."""
        return self.c * self.r ** first_degree / (1.0 - self.r)


def _as_coeff_matrices(coeffs, m: int) -> np.ndarray:
    """The (N+1, m, m) float stack of the coefficient matrices."""
    out = [np.asarray(c, dtype=float) for c in coeffs]
    for n, c in enumerate(out):
        if c.shape != (m, m):
            raise ParameterError(f"coefficient {n} has shape {c.shape}, expected ({m}, {m})")
    if not out:
        raise ParameterError("a model needs at least one coefficient matrix")
    return np.array(out)


# --------------------------------------------------------------------------
# Temporal kernels. Each kernel exposes `domain`,
# coeff_at(n, t, coeffs) -> the m x m matrix B_n(t), or the stack of them
# when n is a slice of degrees (coeffs is the (N+1, m, m) stack), and
# sample_paths(roots, an, times, rngs) -> the (N+1, len(times), m) stack of every
# degree's path: path n is V_n(.) with covariance an[n]^2 B_n(t1 - t2), drawn from
# rngs[n] alone. roots is the read-only (N+1, m, m) stack of coeffs[n]^(1/2), an the
# read-only (N+1,) array of a_n, rngs the degree streams in degree order, and times
# strictly increasing. Kernels receive lags read through the lag rule (errors._require_lag)
# and check nothing; a gap between two checked times may read inf. A kernel
# is immutable once attached to a model. Each built-in kernel checks its parameters
# when built and is then valid exactly when its stored matrices are symmetric
# nonnegative definite, which validate_spatial checks.
# --------------------------------------------------------------------------

_PATH_BLOCK = 1 << 14  # innovation values per block of degrees of VectorMA1.sample_paths


def _normals(rngs, count: int, m: int) -> np.ndarray:
    """The (len(rngs), count, m) standard normals, one standard_normal((count, m)) draw per
    stream: the same numbers as count draws of size m, so a path's draws are time-ordered."""
    z = np.empty((len(rngs), count, m))
    for out, rng in zip(z, rngs):
        rng.standard_normal(out=out)
    return z


@dataclass(frozen=True)
class PureSpatial:
    """Constant in time: B_n(t) = B_n for every lag in the domain."""

    domain: str = REAL_LAGS
    kind = "pure_spatial"

    def coeff_at(self, n, t, coeffs):
        return coeffs[n]

    def sample_paths(self, roots, an, times, rngs):
        """Per degree one draw root @ (a_n z), repeated at every time."""
        z = _normals(rngs, 1, roots.shape[-1]).transpose(0, 2, 1)  # (N+1, m, 1)
        return np.matmul(roots, an[:, None, None] * z).transpose(0, 2, 1).repeat(len(times), 1)


SPATIAL = PureSpatial(ZERO_LAG)  # the kernel of a purely spatial model: constant B_n, lag 0 only


@dataclass(frozen=True)
class SeparableScalar:
    """B_n(t) = r(t) * B_n with a scalar stationary correlation r.

    kind "ar1": r(t) = phi^|t| on integer lags, |phi| < 1.
    kind "exponential": r(t) = exp(-theta |t|) on real lags, theta > 0.
    param by the real-number rule.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("ar1", "exponential"):
            raise ParameterError(f"unknown separable kernel kind {self.kind!r}")
        ar1 = self.kind == "ar1"
        param = _real(self.param, "ar1 coefficient" if ar1 else "exponential rate", ParameterError)
        object.__setattr__(self, "param", param)
        if ar1 and not -1.0 < param < 1.0:
            raise ParameterError(f"ar1 coefficient must lie in (-1, 1), got {param}")
        if not ar1 and not 0.0 < param < math.inf:
            raise ParameterError(f"exponential rate must be positive and finite, got {param}")

    @property
    def domain(self) -> str:
        return INTEGER_LAGS if self.kind == "ar1" else REAL_LAGS

    def correlation(self, t) -> float:
        """r(|t|) for any gap; 0.0 across an infinite one."""
        if self.kind == "ar1":
            return math.pow(self.param, abs(t))
        return math.exp(-self.param * abs(t))

    def coeff_at(self, n, t, coeffs):
        """r(t) B_n; a zero r(t) times a non-finite entry reads nan, which the checks report."""
        with np.errstate(invalid="ignore"):
            return self.correlation(t) * coeffs[n]

    def sample_paths(self, roots, an, times, rngs):
        """Per degree, m independent stationary unit-variance Markov paths mixed through its
        root, with the exact transition across each gap (Ornstein-Uhlenbeck for
        "exponential"). One pass over the gaps steps every degree, in place of its normals,
        and each degree is mixed in place, so the call holds one (N+1, T, m) table."""
        xi = _normals(rngs, len(times), roots.shape[-1])
        for i in range(1, len(times)):
            rho = self.correlation(times[i] - times[i - 1])
            xi[:, i] = rho * xi[:, i - 1] + math.sqrt(1.0 - rho * rho) * xi[:, i]
        xi *= an[:, None, None]
        for x, root in zip(xi, roots):
            x[...] = x @ root.T
        return xi


@dataclass(frozen=True, eq=False)
class VectorMA1:
    """Per-degree lag table of Z(t) = e(t) + Phi e(t-1), var e = Sigma_n.

    With cov(Z(t1), Z(t2)) = B(t1 - t2):
    B_n(0) = Sigma_n + Phi Sigma_n Phi^T, B_n(1) = Phi Sigma_n,
    B_n(-1) = Sigma_n Phi^T, zero beyond lag one. The stored model
    coefficients are the innovation covariances Sigma_n. == and hash are by identity.
    """

    phi: np.ndarray = field(repr=False)
    domain = INTEGER_LAGS
    kind = "ma1"

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)  # a read-only copy: the kernel is immutable
        phi.flags.writeable = False
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ParameterError(f"moving-average matrix must be square, got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ParameterError("moving-average matrix entries must be finite")
        object.__setattr__(self, "phi", phi)

    def __reduce__(self):
        return type(self), (self.phi,)  # copies and pickles rebuild a read-only phi

    def check_m(self, m: int) -> None:
        if self.phi.shape != (m, m):
            raise ParameterError(
                f"moving-average matrix shape {self.phi.shape} does not match m={m}"
            )

    def coeff_at(self, n, t, coeffs):
        """B_n(t); entries that overflow read inf or nan, which the checks report."""
        sigma = coeffs[n]
        with np.errstate(over="ignore", invalid="ignore"):
            if t == 0:
                return sigma + self.phi @ sigma @ self.phi.T
            if t == 1:
                return self.phi @ sigma
            if t == -1:
                return sigma @ self.phi.T
        return np.zeros_like(sigma)

    def sample_paths(self, roots, an, times, rngs):
        """Innovations root @ z at every needed integer time, then the MA(1) sum: t - 1 is
        needed unless it is the time before, so e(t) is the count-th innovation so far.
        The index is found once per call; on consecutive times it is every innovation, and
        e(t - 1) and e(t) are read as views. Degrees are drawn a block at a time, of at most
        _PATH_BLOCK innovation values or one degree, so the temporaries stay small beside
        the paths."""
        at, count, last = [], 0, None
        for t in map(int, times):  # exact integers: a float t - 1 rounds past 2**53
            count += 1 if t - 1 == last else 2
            at.append(count - 1)
            last = t
        if count == len(at) + 1:  # no time skipped: e(t - 1) and e(t) as views
            prev, now = slice(None, -1), slice(1, None)
        else:
            now = np.array(at)
            prev = now - 1
        m = roots.shape[-1]
        paths = np.empty((len(roots), len(times), m))
        step = max(1, _PATH_BLOCK // (count * m))
        for k in range(0, len(roots), step):
            block = slice(k, k + step)
            # stacked matrix-vector products round as one root @ z_s per time; z @ root.T does not
            eps = np.matmul(roots[block, None], _normals(rngs[block], count, m)[..., None])
            mixed = np.matmul(self.phi, eps[:, prev])
            mixed += eps[:, now]
            np.multiply(an[block, None, None], mixed[..., 0], out=paths[block])
        return paths


# --------------------------------------------------------------------------
# Models
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeriesModel:
    """Jacobi-series covariance model of an m-variate isotropic field, with per-degree
    stationary covariance matrix functions B_n(t) given by the kernel's lag table.

    `coeffs` is the (N+1, m, m) array of B_n for constant and separable kernels
    and of the innovation covariances Sigma_n for the moving-average kernel.
    The default kernel SPATIAL makes a purely spatial model: the constant B_n,
    at lag 0 only. m by the rule of m. A kernel may define check_m(m) to reject parameters
    of the wrong dimension. A model is a value: frozen, with read-only `coeffs` of its own, so its
    lag-0 analysis, its a_n and its Jacobi recurrence are computed at most once per object.
    dataclasses.replace builds an edited model; pickle and copy rebuild one through the
    constructor. == and hash are those of the object's identity, as for VectorMA1, Realization
    and spaces.Point.
    """

    space: SpaceParams
    m: int
    coeffs: np.ndarray
    kernel: object = SPATIAL
    tail: TailEnvelope | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", _check_m(self.m))
        coeffs = _as_coeff_matrices(self.coeffs, self.m)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        check_m = getattr(self.kernel, "check_m", None)
        if check_m is not None:
            check_m(self.m)

    def __reduce__(self):
        return type(self), (self.space, self.m, self.coeffs, self.kernel, self.tail)

    @cached_property
    def _lag0(self) -> tuple[ValidityReport, np.ndarray | None]:
        """factor_coefficients(self), computed on first use."""
        return factor_coefficients(self)

    @cached_property
    def _an(self) -> np.ndarray:
        """The read-only a_n of every stored degree, computed on first use."""
        an = np.array([a_constant(self.space, n) for n in range(self.max_degree + 1)])
        an.flags.writeable = False
        return an

    @cached_property
    def _steps(self) -> tuple:
        """The Jacobi recurrence of the space to the stored degree, computed on first use."""
        return _recurrence(self.max_degree, self.space.geom.alpha, self.space.geom.beta)

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def domain(self) -> str:
        return self.kernel.domain

    def coeff_at(self, n: int | slice, t: float = 0.0) -> np.ndarray:
        """B_n(t), or the stack of B_n(t) over a slice of degrees (passed through as it is).
        n by the whole-number rule, UsageError outside the stored range 0..N; t by the lag
        rule of the model's domain."""
        if not isinstance(n, slice):
            n = _whole(n, "degree")
            if n > self.max_degree:
                raise UsageError(f"degree {n} outside stored range 0..{self.max_degree}")
        return self.kernel.coeff_at(n, _require_lag(self.domain, t), self.coeffs)

    def validate(self, probe_lags=None) -> ValidityReport:
        """Lag-0 domain: validate_spatial, probe_lags by the lag-list rule of lag 0; else
        validate_spatiotemporal."""
        if self.domain != ZERO_LAG:
            return validate_spatiotemporal(self, DEFAULT_PROBE_LAGS if probe_lags is None
                                           else probe_lags)
        if probe_lags is not None:
            _lag_list(probe_lags, "probe_lags", ZERO_LAG)
        return validate_spatial(self)


# --------------------------------------------------------------------------
# Validity checking
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    degree: int
    lag: object  # numeric lag, or "spatial" for lag-free findings
    kind: str  # "asymmetric" | "indefinite" | "divergent"
    magnitude: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ValidityReport:
    valid: bool
    violations: list[Violation]

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        if self.valid:
            return "valid"
        parts = [
            f"degree {v.degree} lag {v.lag}: {v.kind} (magnitude {v.magnitude:.3e})"
            for v in self.violations
        ]
        return "invalid: " + "; ".join(parts)


def _symmetric_part(mat: np.ndarray) -> np.ndarray:
    """(B + B^T) / 2 of a matrix or a stack; halving first cannot overflow."""
    return 0.5 * mat + 0.5 * np.swapaxes(mat, -1, -2)


def _weighted_norm_sum(model, norms, first: int) -> float:
    """sum_n norms[n - first] * P_n(1) from degree `first` on, in degree order."""
    total = 0.0
    for n, norm in enumerate(norms, first):
        total += float(norm) * jacobi_at_one(n, model.space.geom)
    return total


def require_finite(model) -> None:
    """ModelError naming every divergent degree of the model's lag-0 report."""
    bad = [v for v in model._lag0[0].violations if v.kind == "divergent"]
    if bad:
        summary = ValidityReport(False, sorted(bad, key=lambda v: v.degree)).summary()
        raise ModelError(f"cannot evaluate an invalid model: {summary}")


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Root v diag(sqrt(max(w, 0))) v^T of one eigendecomposition or a stack."""
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def _lag_symmetry(bt, bmt):
    """(finite, mismatch, flagged) over the leading axes of the stacked probes B(t) and
    B(-t): flagged where a pair is not finite or max|B(-t) - B(t)^T| exceeds
    SYMMETRY_TOL max(1, max|B(t)|). Non-finite pairs are compared as zeros, and an
    overflowing difference reads inf, so no RuntimeWarning escapes."""
    finite = np.all(np.isfinite(bt) & np.isfinite(bmt), axis=(-2, -1))
    if not finite.all():
        bt, bmt = (np.where(finite[..., None, None], b, 0.0) for b in (bt, bmt))
    scale = np.maximum(1.0, np.max(np.abs(bt), axis=(-2, -1)))
    with np.errstate(over="ignore"):
        mismatch = np.max(np.abs(bmt - np.swapaxes(bt, -1, -2)), axis=(-2, -1))
    return finite, mismatch, ~finite | (mismatch > SYMMETRY_TOL * scale)


def factor_coefficients(model) -> tuple[ValidityReport, np.ndarray | None]:
    """validate_spatial's report and, for a valid model, the read-only (N+1, m, m)
    roots B_n^(1/2) the simulation draws with, from one stacked eigh of the
    symmetrised stored coefficients. A non-finite coefficient is reported
    divergent and factored as zero. A model holds its own as `_lag0`."""
    coeffs = model.coeffs
    finite, asym, flagged = _lag_symmetry(coeffs, coeffs)  # the lag-0 probe: B(-0) = B(0)
    safe = np.where(finite[:, None, None], coeffs, 0.0)
    w, v = np.linalg.eigh(_symmetric_part(safe))
    violations: list[Violation] = []
    for n in range(len(coeffs)):
        if not finite[n]:
            violations.append(Violation(n, "spatial", "divergent", float("inf")))
            continue
        if flagged[n]:
            violations.append(Violation(n, "spatial", "asymmetric", float(asym[n])))
        if w[n, 0] < -PSD_TOL * max(1.0, w[n, -1]):
            violations.append(Violation(n, "spatial", "indefinite", float(w[n, 0])))
    # Divergent when sum_n ||B_n(0)||_2 P_n(1) plus the tail is not finite, the norm being
    # the largest |eigenvalue| (w's when B_n(0) is the stored coefficient); a non-finite
    # B_n(0) is a divergent degree n, unless the loop above already reported it so.
    b0s = model.coeff_at(slice(None), 0.0)
    b0_finite = np.all(np.isfinite(b0s), axis=(1, 2))
    if not b0_finite.all():
        reported = {v.degree for v in violations if v.kind == "divergent"}
        violations += [Violation(int(n), "spatial", "divergent", float("inf"))
                       for n in np.flatnonzero(~b0_finite) if n not in reported]
    else:
        b0_w = w if np.array_equal(b0s, coeffs) else np.linalg.eigvalsh(_symmetric_part(b0s))
        total = _weighted_norm_sum(model, np.abs(b0_w).max(axis=-1), 0)
        if model.tail is not None:
            total += model.tail.tail_sum(model.max_degree + 1)
        if not math.isfinite(total):
            violations.append(Violation(model.max_degree, "spatial", "divergent", float("inf")))
    report = ValidityReport(valid=not violations, violations=violations)
    roots = _psd_root(w, v) if report.valid else None
    if roots is not None:
        roots.flags.writeable = False
    return report, roots


def validate_spatial(model: SeriesModel) -> ValidityReport:
    """Check symmetry and nonnegative definiteness of each coefficient,
    finiteness of sum ||B_n|| P_n(1), and the tail envelope."""
    report = model._lag0[0]
    return ValidityReport(report.valid, list(report.violations))


def validate_spatiotemporal(model: SeriesModel, probe_lags) -> ValidityReport:
    """Validity of a space-time model: the lag-0 report, then probes on a finite lag grid.

    The probe lags, by the lag-list rule, must hold 0, be lags of the model's domain, and
    differ by finite amounts. A model that fails the lag-0 analysis (validate_spatial, which
    gates simulation) gets that report unchanged. Otherwise each degree is probed:
    B_n(-t) must equal B_n(t)^T on the probed lags, and the block matrix
    [B_n(t_i - t_j)] over the grid must be nonnegative definite. Passing all probes
    is necessary but, for continuous time, not sufficient for validity on all of R.
    Every degree's B_n(s) is read at once, one model.coeff_at call per distinct
    difference s = t_i - t_j; with 0 in the grid these include every t and -t. A
    grid of G distinct lags has up to G(G-1)+1 of them, each tabulated as (N+1)m^2
    values and indexed at the cost of about 32 more; a grid whose worst case exceeds
    MAX_LAG_TABLE values is rejected before anything is read. The report lists each
    degree's lag findings in grid order, then its block.
    """
    lags = _lag_list(probe_lags, "probe_lags", REAL_LAGS, "probe lag")
    if 0.0 not in lags:
        raise UsageError("probe_lags must contain 0")
    grid = sorted(set(lags))
    for t in grid:  # the model's domain, in grid order
        _require_lag(model.domain, t, "probe lag")
    if not math.isfinite(grid[-1] - grid[0]):  # the widest of the differences t_i - t_j
        raise UsageError(f"probe lags {grid[-1]} and {grid[0]} differ by more than a float holds")
    rows, width = len(grid) * (len(grid) - 1) + 1, (model.max_degree + 1) * model.m**2
    if rows * (width + 32) > MAX_LAG_TABLE:
        raise UsageError(
            f"a probe grid of {len(grid)} distinct lags may need {rows} lag differences "
            f"of {width} coefficients each, over the cap of {MAX_LAG_TABLE} table values"
        )
    lag0 = model._lag0[0]
    if not lag0.valid:
        return ValidityReport(False, list(lag0.violations))  # validate_spatial's report
    diffs = [ti - tj for ti in grid for tj in grid]
    index = {s: k for k, s in enumerate(dict.fromkeys(diffs))}  # in first-read order
    table = np.empty((len(index), model.max_degree + 1, model.m, model.m))
    for s, k in index.items():
        table[k] = model.coeff_at(slice(None), s)
    pairs = np.array([index[s] for s in diffs]).reshape(len(grid), -1)
    zero = grid.index(0.0)  # t_i - 0 = t_i and 0 - t_j = -t_j
    finite, mismatch, flagged = _lag_symmetry(table[pairs[:, zero]], table[pairs[zero]])
    violations: list[Violation] = []
    for n in range(model.max_degree + 1):
        violations += [Violation(n, grid[g], "asymmetric", float(mismatch[g, n])) if finite[g, n]
                       else Violation(n, grid[g], "divergent", float("inf"))
                       for g in np.flatnonzero(flagged[:, n])]
        gram = table[pairs, n].transpose(0, 2, 1, 3).reshape(len(grid) * model.m, -1)
        if np.all(np.isfinite(gram)):
            # G copies of B_n(0) on the diagonal: the floor is G where one matrix's is 1,
            # so a separable B_n(t) that passes at lag 0 passes here too
            w = np.linalg.eigvalsh(_symmetric_part(gram))
            if w[0] < -PSD_TOL * max(len(grid), w[-1]):
                violations.append(Violation(n, "spatial", "indefinite", float(w[0])))
    return ValidityReport(valid=not violations, violations=violations)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def _resolve_trunc(model, trunc) -> int:
    """The truncation degree: the stored maximum for None, else a degree no higher."""
    if trunc is None:
        return model.max_degree
    trunc = _whole(trunc, "truncation degree")
    if trunc > model.max_degree:
        raise UsageError(
            f"truncation degree {trunc} exceeds stored maximum degree {model.max_degree}"
        )
    return trunc


def eval_cov(model, rho, t=0.0, trunc: int | None = None) -> np.ndarray:
    """Partial sum of the covariance series through the given degree.

    `rho` is one distance or an array of them; the result has shape
    (*rho.shape, m, m) for one lag t, and (len(t), *rho.shape, m, m) for a
    sequence of lags, all read from one Jacobi table per block of distances.
    Spatial models require t = 0. The neglected degrees are bounded by
    truncation_bound(model, trunc). A divergent series raises ModelError (see
    require_finite), and a sum that is not finite NumericError naming its first
    distance and lag. The terms B_n(t) P_n(cos rho) are added in degree order onto
    zeros (jacobi._jacobi_series), which fixes the output bytes whatever else is asked
    for. rho by the real-array rule; t by the lag rule, or a sequence by the lag-list rule;
    trunc by the whole-number rule.
    """
    # one lag (a number, text, bytes or a 0-d array), or a sequence of them
    one = isinstance(t, (str, bytes)) or not hasattr(t, "__len__") or getattr(t, "ndim", 1) == 0
    lags = [_require_lag(model.domain, t)] if one else _lag_list(t, "t", model.domain)
    require_finite(model)
    trunc = _resolve_trunc(model, trunc)
    rho = _reals(rho, "rho")
    flat = rho.reshape(-1)
    # libm cos per distance: np.cos may round differently and shift output bytes
    x = np.fromiter(map(math.cos, flat), float, flat.size).reshape(-1 if rho.ndim else ())
    bs = np.stack([model.kernel.coeff_at(slice(trunc + 1), t, model.coeffs) for t in lags], axis=1)
    out = _jacobi_series(trunc, model.space.geom, x, bs, model._steps).reshape(
        flat.size, len(lags), model.m**2)
    bad = np.argwhere(~np.isfinite(out).all(axis=2))  # (distance, lag)
    if len(bad):
        j, k = bad[0]
        raise NumericError(f"the covariance series is not finite at distance "
                           f"{float(flat[j])!r} and lag {float(lags[k])!r}")
    return out.swapaxes(0, 1).reshape((() if one else (len(lags),)) + rho.shape + (model.m,) * 2)


def truncation_bound(model, N: int) -> float:
    """Upper bound sum_{n > N} ||B_n(0)|| P_n(1) on the discarded tail; N, by the
    whole-number rule, may exceed the stored degrees. A divergent series raises ModelError
    (see require_finite), and a bound that is not finite NumericError."""
    require_finite(model)
    N = _whole(N, "truncation degree")
    b0s = model.coeff_at(slice(N + 1, None), 0.0)
    total = _weighted_norm_sum(model, [np.linalg.norm(b0, 2) for b0 in b0s], N + 1)
    if model.tail is not None:
        total += model.tail.tail_sum(max(N, model.max_degree) + 1)
    if not math.isfinite(total):
        raise NumericError(f"the tail bound past degree {N} is not finite")
    return total


def angular_power_spectrum(model: SeriesModel, n: int) -> np.ndarray:
    """Per-eigenspace normalization B_n(0) / dim H_n, for any kernel, n as coeff_at reads it.
    A divergent series raises ModelError (see require_finite), a dim H_n past a float
    NumericError."""
    require_finite(model)
    b0 = model.coeff_at(n, 0.0)  # the whole-number rule and the stored range
    dim = dim_eigenspace(model.space, n)
    if dim == math.inf:
        raise NumericError(f"degree {n}: the eigenspace dimension of {model.space} overflows")
    return b0 / dim


def recover_coefficients(
    cov, space: SpaceParams, m: int, N: int, order: int
) -> SeriesModel:
    """Invert a distance-only covariance into Jacobi-series coefficients.

    B_n is the weighted Gauss-Jacobi quadrature of cov(arccos x) P_n(x)
    divided by the norm constant of P_n; exact for covariances that are
    degree <= N expansions when order >= N + 1. Output matrices are
    symmetrized. m by the rule of m, N and order by the whole-number rule, then order and m
    by the size cap on the quadrature rule's matrix and the (order, m, m) covariance table,
    all before cov is called.
    """
    m = _check_m(m)
    N = _whole(N, "max degree")
    order = _whole(order, "quadrature order")
    if order < N + 1:
        raise UsageError(f"quadrature order {order} is too small for max degree {N}")
    _sized(order * max(order + _STEP_WORDS, m * m), "quadrature order and m")
    rule = gauss_jacobi(order, space.geom)
    cov_values = np.empty((order, m, m))
    for k, x in enumerate(rule.nodes):
        c = np.asarray(cov(float(np.arccos(np.clip(x, -1.0, 1.0)))), dtype=float)
        if c.shape == () and m == 1:
            c = c.reshape(1, 1)
        if c.shape != (m, m):
            raise UsageError(f"covariance callable returned shape {c.shape}, expected ({m}, {m})")
        if not np.all(np.isfinite(c)):
            raise UsageError("covariance callable returned non-finite values")
        cov_values[k] = c
    coeffs = []
    for n, pn in enumerate(jacobi_all(N, space.geom, rule.nodes)):
        b = np.tensordot(rule.weights * pn, cov_values, axes=(0, 0))
        b /= jacobi_norm_constant(n, space.geom)
        coeffs.append(0.5 * (b + b.T))
    return SeriesModel(space, m, coeffs)
