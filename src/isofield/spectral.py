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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelError, ParameterError, UsageError
from .jacobi import _check_degree, gauss_jacobi, jacobi_all, jacobi_at_one, jacobi_norm_constant
from .spaces import SpaceParams, dim_eigenspace

# Relative floors for symmetry / nonnegative-definiteness under rounding.
SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
BLOCK_PSD_TOL = 1e-9

MAX_LAG_TABLE = 10_000_000  # float64 values (80 MB) validate_spatiotemporal may tabulate

INTEGER_LAGS = "integers"
REAL_LAGS = "reals"
ZERO_LAG = "zero"  # a purely spatial model: lag 0 only
DEFAULT_PROBE_LAGS = (-2.0, -1.0, 0.0, 1.0, 2.0)  # SeriesModel.validate's grid for probe_lags=None


@dataclass(frozen=True)
class TailEnvelope:
    """Geometric bound c * r^n on ||B_n|| P_n(1) past the stored degrees."""

    c: float
    r: float

    def __post_init__(self):
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
# sample_path(root, an, times, rng) -> the (len(times), m) degree-n path
# V_n(.) with covariance a_n^2 B_n(t1 - t2), given the read-only root
# coeffs[n]^(1/2) and strictly increasing times. A kernel is immutable once
# attached to a model. Each built-in kernel checks its parameters when built
# and is then valid exactly when its stored matrices are symmetric
# nonnegative definite, which is what validate_spatial checks.
# --------------------------------------------------------------------------


def _require_lag(domain: str, t) -> float:
    """t as a float; UsageError unless it is a finite lag of the domain."""
    t = float(t)
    if not math.isfinite(t):
        raise UsageError(f"lag {t} is not finite")
    if domain == INTEGER_LAGS and not t.is_integer():
        raise UsageError(f"lag {t} is not an integer but the model's temporal domain is Z")
    if domain == ZERO_LAG and t != 0.0:
        raise UsageError("a purely spatial model is evaluated at lag 0 only")
    return t


@dataclass(frozen=True)
class PureSpatial:
    """Constant in time: B_n(t) = B_n for every lag in the domain."""

    domain: str = REAL_LAGS
    kind = "pure_spatial"

    def coeff_at(self, n, t, coeffs):
        _require_lag(self.domain, t)
        return coeffs[n]

    def sample_path(self, root, an, times, rng):
        w = root @ (an * rng.standard_normal(root.shape[0]))
        return w[None].repeat(len(times), 0)


SPATIAL = PureSpatial(ZERO_LAG)  # the kernel of a purely spatial model: constant B_n, lag 0 only


@dataclass(frozen=True)
class SeparableScalar:
    """B_n(t) = r(t) * B_n with a scalar stationary correlation r.

    kind "ar1": r(t) = phi^|t| on integer lags, |phi| < 1.
    kind "exponential": r(t) = exp(-theta |t|) on real lags, theta > 0.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "ar1":
            if not (-1.0 < self.param < 1.0):
                raise ParameterError(f"ar1 coefficient must lie in (-1, 1), got {self.param}")
        elif self.kind == "exponential":
            if not (0.0 < self.param < math.inf):
                raise ParameterError(
                    f"exponential rate must be positive and finite, got {self.param}"
                )
        else:
            raise ParameterError(f"unknown separable kernel kind {self.kind!r}")

    @property
    def domain(self) -> str:
        return INTEGER_LAGS if self.kind == "ar1" else REAL_LAGS

    def correlation(self, t) -> float:
        t = _require_lag(self.domain, t)
        if self.kind == "ar1":
            return self.param ** abs(int(round(t)))
        return math.exp(-self.param * abs(t))

    def coeff_at(self, n, t, coeffs):
        """r(t) B_n; a zero r(t) times a non-finite entry reads nan, which the checks report."""
        with np.errstate(invalid="ignore"):
            return self.correlation(t) * coeffs[n]

    def sample_path(self, root, an, times, rng):
        """m independent stationary unit-variance Markov paths mixed through root,
        with the exact transition across each gap (Ornstein-Uhlenbeck for "exponential")."""
        m = root.shape[0]
        xi = np.empty((len(times), m))
        xi[0] = rng.standard_normal(m)
        for i in range(1, len(times)):
            rho = self.correlation(times[i] - times[i - 1])
            xi[i] = rho * xi[i - 1] + np.sqrt(1.0 - rho * rho) * rng.standard_normal(m)
        return an * xi @ root.T


@dataclass(frozen=True)
class VectorMA1:
    """Per-degree lag table of Z(t) = e(t) + Phi e(t-1), var e = Sigma_n.

    With cov(Z(t1), Z(t2)) = B(t1 - t2):
    B_n(0) = Sigma_n + Phi Sigma_n Phi^T, B_n(1) = Phi Sigma_n,
    B_n(-1) = Sigma_n Phi^T, zero beyond lag one. The stored model
    coefficients are the innovation covariances Sigma_n.
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

    def check_m(self, m: int) -> None:
        if self.phi.shape != (m, m):
            raise ParameterError(
                f"moving-average matrix shape {self.phi.shape} does not match m={m}"
            )

    def coeff_at(self, n, t, coeffs):
        """B_n(t); entries that overflow read inf or nan, which the checks report."""
        t = _require_lag(self.domain, t)
        sigma = coeffs[n]
        k = int(round(t))
        with np.errstate(over="ignore", invalid="ignore"):
            if k == 0:
                return sigma + self.phi @ sigma @ self.phi.T
            if k == 1:
                return self.phi @ sigma
            if k == -1:
                return sigma @ self.phi.T
        return np.zeros_like(sigma)

    def sample_path(self, root, an, times, rng):
        """Innovations root @ z at every needed integer time, then the MA(1) sum."""
        needed = sorted({int(t) for t in times} | {int(t) - 1 for t in times})
        z = rng.standard_normal((len(needed), root.shape[0]))  # the draws of one call per time
        # one product per time: a batched z @ root.T rounds differently
        eps = {s: root @ z_s for s, z_s in zip(needed, z)}
        return np.array([an * (eps[int(t)] + self.phi @ eps[int(t) - 1]) for t in times])


# --------------------------------------------------------------------------
# Models
# --------------------------------------------------------------------------


@dataclass
class SeriesModel:
    """Jacobi-series covariance model of an m-variate isotropic field, with per-degree
    stationary covariance matrix functions B_n(t) given by the kernel's lag table.

    `coeffs` is the (N+1, m, m) array of B_n for constant and separable kernels
    and of the innovation covariances Sigma_n for the moving-average kernel.
    The default kernel SPATIAL makes a purely spatial model: the constant B_n,
    at lag 0 only. A kernel may define check_m(m) to reject parameters of the
    wrong dimension.
    """

    space: SpaceParams
    m: int
    coeffs: np.ndarray
    kernel: object = SPATIAL
    tail: TailEnvelope | None = None

    def __post_init__(self):
        self.coeffs = _as_coeff_matrices(self.coeffs, self.m)
        check_m = getattr(self.kernel, "check_m", None)
        if check_m is not None:
            check_m(self.m)

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def domain(self) -> str:
        return self.kernel.domain

    def coeff_at(self, n: int | slice, t: float = 0.0) -> np.ndarray:
        """B_n(t), or the stack of B_n(t) over a slice of degrees."""
        return self.kernel.coeff_at(n, t, self.coeffs)

    def validate(self, probe_lags=None) -> ValidityReport:
        """Lag-0 domain: validate_spatial, every probe lag 0; else validate_spatiotemporal."""
        if self.domain == ZERO_LAG:
            for t in [0.0] if probe_lags is None else probe_lags:
                _require_lag(ZERO_LAG, t)
            return validate_spatial(self)
        lags = DEFAULT_PROBE_LAGS if probe_lags is None else probe_lags
        return validate_spatiotemporal(self, lags)


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
        return {
            "degree": self.degree,
            "lag": self.lag,
            "kind": self.kind,
            "magnitude": self.magnitude,
        }


@dataclass
class ValidityReport:
    valid: bool
    violations: list[Violation]

    def as_dict(self) -> dict:
        return {"valid": self.valid, "violations": [v.as_dict() for v in self.violations]}

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


def _check_convergence(model, violations, stored=None, stored_w=None):
    """Divergent when sum_n ||B_n(0)||_2 P_n(1) plus the tail is not finite; the norm is
    the largest |eigenvalue|, from stored_w when B_n(0) is the stored coefficient
    (constant and separable kernels). A non-finite B_n(0) is a divergent degree n,
    unless a degree check already reported it so."""
    b0s = model.coeff_at(slice(None), 0.0)
    finite = np.all(np.isfinite(b0s), axis=(1, 2))
    if not finite.all():
        reported = {v.degree for v in violations if v.kind == "divergent"}
        violations += [Violation(int(n), "spatial", "divergent", float("inf"))
                       for n in np.flatnonzero(~finite) if n not in reported]
        return
    if stored_w is None or not np.array_equal(b0s, stored):
        stored_w = np.linalg.eigvalsh(_symmetric_part(b0s))
    total = _weighted_norm_sum(model, np.abs(stored_w).max(axis=-1), 0)
    if model.tail is not None:
        total += model.tail.tail_sum(model.max_degree + 1)
    if not math.isfinite(total):
        violations.append(Violation(model.max_degree, "spatial", "divergent", float("inf")))


def require_finite(model) -> None:
    """ModelError naming every divergent degree of the model's lag-0 report."""
    bad = [v for v in factor_coefficients(model)[0].violations if v.kind == "divergent"]
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
    divergent and factored as zero. Memoised on the model, keyed by everything
    the analysis reads (the coefficient bytes, space, tail and, by identity,
    the kernel), so an edit or reassignment is seen by the next call."""
    coeffs = np.asarray(model.coeffs, dtype=float)
    key = (coeffs.tobytes(), coeffs.shape, model.space, model.tail)
    memo = model.__dict__.get("_factored")
    if memo is not None and memo[0] == key and memo[1] is model.kernel:
        return memo[2], memo[3]
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
    _check_convergence(model, violations, coeffs, w)
    report = ValidityReport(valid=not violations, violations=violations)
    roots = _psd_root(w, v) if report.valid else None
    if roots is not None:
        roots.flags.writeable = False
    model._factored = (key, model.kernel, report, roots)
    return report, roots


def validate_spatial(model: SeriesModel) -> ValidityReport:
    """Check symmetry and nonnegative definiteness of each coefficient,
    finiteness of sum ||B_n|| P_n(1), and the tail envelope."""
    report = factor_coefficients(model)[0]
    return ValidityReport(report.valid, list(report.violations))


def validate_spatiotemporal(model: SeriesModel, probe_lags) -> ValidityReport:
    """Necessary-condition checks of a space-time model on a finite lag grid.

    Per degree: B_n(-t) must equal B_n(t)^T on the probed lags, and the
    block matrix [B_n(t_i - t_j)] over the grid must be nonnegative
    definite. Convergence of sum ||B_n(0)|| P_n(1) is checked as in the
    spatial case. Passing all probes is necessary but, for continuous
    time, not sufficient for validity on all of R. The probe lags and their
    differences must be finite; every degree's B_n(s) is read at once, one
    model.coeff_at call per distinct lag s among the t, -t and t_i - t_j the
    checks need. A grid of G distinct lags has up to G(G-1)+1 of them, each
    tabulated as (N+1)m^2 values and indexed at the cost of about 32 more; a
    grid whose worst case exceeds MAX_LAG_TABLE values is rejected before
    anything is read. The symmetry probes of every degree and lag are a few array reductions; the
    report lists each degree's lag findings in grid order, then its block.
    """
    lags = [float(t) for t in probe_lags]
    if not lags:
        raise UsageError("probe_lags must be nonempty")
    if not any(t == 0.0 for t in lags):
        raise UsageError("probe_lags must contain 0")
    if not all(map(math.isfinite, lags)):
        raise UsageError(f"probe lag {next(t for t in lags if not math.isfinite(t))} is not finite")
    grid = sorted(set(lags))
    if not math.isfinite(grid[-1] - grid[0]):  # the widest of the differences t_i - t_j
        raise UsageError(f"probe lags {grid[-1]} and {grid[0]} differ by more than a float holds")
    rows, width = len(grid) * (len(grid) - 1) + 1, (model.max_degree + 1) * model.m**2
    if rows * (width + 32) > MAX_LAG_TABLE:
        raise UsageError(
            f"a probe grid of {len(grid)} distinct lags may need {rows} lag differences "
            f"of {width} coefficients each, over the cap of {MAX_LAG_TABLE} table values"
        )
    reads = [u for t in grid for u in (t, -t)] + [ti - tj for ti in grid for tj in grid]
    index = {s: k for k, s in enumerate(dict.fromkeys(reads))}  # in first-read order
    table = np.empty((len(index), model.max_degree + 1, model.m, model.m))
    for s, k in index.items():
        table[k] = model.coeff_at(slice(None), s)
    pairs = np.array([index[s] for s in reads[2 * len(grid):]]).reshape(len(grid), -1)
    finite, mismatch, flagged = _lag_symmetry(table[[index[t] for t in grid]],
                                              table[[index[-t] for t in grid]])
    violations: list[Violation] = []
    for n in range(model.max_degree + 1):
        violations += [Violation(n, grid[g], "asymmetric", float(mismatch[g, n])) if finite[g, n]
                       else Violation(n, grid[g], "divergent", float("inf"))
                       for g in np.flatnonzero(flagged[:, n])]
        gram = table[pairs, n].transpose(0, 2, 1, 3).reshape(len(grid) * model.m, -1)
        if np.all(np.isfinite(gram)):
            w = np.linalg.eigvalsh(_symmetric_part(gram))
            if w[0] < -BLOCK_PSD_TOL * max(1.0, w[-1]):
                violations.append(Violation(n, "spatial", "indefinite", float(w[0])))
    _check_convergence(model, violations)
    return ValidityReport(valid=not violations, violations=violations)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def _resolve_trunc(model, trunc) -> int:
    """The truncation degree: the stored maximum for None, else a degree no higher."""
    if trunc is None:
        return model.max_degree
    trunc = _check_degree(trunc, "truncation degree")
    if trunc > model.max_degree:
        raise UsageError(
            f"truncation degree {trunc} exceeds stored maximum degree {model.max_degree}"
        )
    return trunc


def eval_cov(model, rho, t: float = 0.0, trunc: int | None = None) -> np.ndarray:
    """Partial sum of the covariance series through the given degree.

    `rho` is one distance or an array of them; the result has shape
    (*rho.shape, m, m), so (m, m) for a scalar. Spatial models require
    t = 0. The neglected degrees are bounded by truncation_bound(model, trunc).
    A divergent series raises ModelError (see require_finite).
    """
    require_finite(model)
    trunc = _resolve_trunc(model, trunc)
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        raise DomainError(f"distances must be finite, got {rho[~np.isfinite(rho)]}")
    # libm cos per distance: np.cos may round differently and shift output bytes
    x = np.array([math.cos(r) for r in rho.ravel().tolist()]).reshape(rho.shape)
    pn = jacobi_all(trunc, model.space.geom, x)[..., None, None]
    bs = model.coeff_at(slice(trunc + 1), t)
    out = np.zeros(rho.shape + (model.m, model.m))
    for n in range(trunc + 1):  # in degree order: the sum's rounding is the output's bytes
        out += bs[n] * pn[n]
    return out


def truncation_bound(model, N: int) -> float:
    """Upper bound sum_{n > N} ||B_n(0)|| P_n(1) on the discarded tail; N may exceed
    the stored degrees. A divergent series raises ModelError (see require_finite)."""
    require_finite(model)
    N = _check_degree(N, "truncation degree")
    b0s = model.coeff_at(slice(N + 1, None), 0.0)
    total = _weighted_norm_sum(model, [np.linalg.norm(b0, 2) for b0 in b0s], N + 1)
    if model.tail is not None:
        total += model.tail.tail_sum(max(N, model.max_degree) + 1)
    return total


def angular_power_spectrum(model: SeriesModel, n: int) -> np.ndarray:
    """Per-eigenspace normalization B_n(0) / dim H_n, for any kernel. A divergent
    series raises ModelError (see require_finite)."""
    require_finite(model)
    n = _check_degree(n)
    if n > model.max_degree:
        raise UsageError(f"degree {n} outside stored range 0..{model.max_degree}")
    return model.coeff_at(n, 0.0) / dim_eigenspace(model.space, n)


def recover_coefficients(
    cov, space: SpaceParams, m: int, N: int, order: int
) -> SeriesModel:
    """Invert a distance-only covariance into Jacobi-series coefficients.

    B_n is the weighted Gauss-Jacobi quadrature of cov(arccos x) P_n(x)
    divided by the norm constant of P_n; exact for covariances that are
    degree <= N expansions when order >= N + 1. Output matrices are
    symmetrized.
    """
    if order < N + 1:
        raise UsageError(f"quadrature order {order} is too small for max degree {N}")
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
