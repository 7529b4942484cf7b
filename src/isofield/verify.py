"""Numeric oracles: Monte-Carlo checks and closed-form identity checks.

Monte-Carlo estimates carry their standard error and a z-score against the
analytic target; the suite convention is |z| <= 5, which at the replicate
counts used here keeps the per-check false-alarm probability below 1e-6.
Estimates are deterministic given their seed. Integrals over the space are
the only thing estimated by Monte-Carlo; one-dimensional integrals go
through Gauss-Jacobi quadrature instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import REAL_LAGS, UsageError, _count, _require_lag, _shown, _sized, _whole
from .jacobi import _STEP_WORDS, _jacobi_series, _recurrence, jacobi_all, jacobi_at_one, jacobi_eval
from .simulate import Realization, substream
from .spaces import (
    SpaceParams,
    _point_family,
    _width,
    a_constant,
    cos_distance_batch,
    dim_eigenspace,
    point_array,
    sample_uniform_batch,
    sphere_volume,
    weinstein_integer_value,
)
from .spectral import eval_cov

Z_THRESHOLD = 5.0


def replicate_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic per-replicate seeds derived from one master seed; both by the count rule,
    the master seed with no upper bound, the count within the size cap."""
    seq = np.random.SeedSequence(_count(master_seed, "master seed", high=None))
    count = _count(count, "replicate count")
    _sized(7 * count, "replicate count")  # a seed's uint64, then its Python int and list slot
    return [int(s) for s in seq.generate_state(count, np.uint64)]


def _z_score(value, std_error, target) -> float:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    se = np.atleast_1d(np.asarray(std_error, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    diff = np.abs(value - target)
    scale = np.maximum(1.0, np.maximum(np.abs(value), np.abs(target)))
    # identical samples leave an O(eps) residual standard error; anything
    # below this floor is a deterministic component
    live = se > 1e-13 * scale
    z = np.zeros_like(diff)
    z[live] = diff[live] / se[live]
    dead = ~live & (diff > 1e-12 * scale)
    z[dead] = np.inf
    return float(np.max(z))


@dataclass
class MCEstimate:
    """A Monte-Carlo estimate with its standard error and analytic target."""

    value: object
    std_error: object
    replicates: int
    target: object
    z_score: float = field(init=False)

    def __post_init__(self):
        self.z_score = _z_score(self.value, self.std_error, self.target)

    @property
    def passed(self) -> bool:
        return self.z_score <= Z_THRESHOLD


def _mean_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    return mean, se


def _replicates(space: SpaceParams, replicates, name: str, degree: int, abscissae: int = 1) -> int:
    """replicates by the count rule from 2, then by the size cap on their uniform points of the
    space (named by name) and on the Jacobi table of degree + 1 rows of abscissae values per
    replicate (named degree)."""
    replicates = _count(replicates, name, 2)
    _sized(replicates * _width(_point_family(space), space.d), name)
    _sized((degree + 1) * (abscissae * replicates + _STEP_WORDS), "degree")
    return replicates


def _uniform_cosines(space: SpaceParams, x1, x2, replicates, seed: int):
    """cos rho(x1, x2), then cos rho(x1, U) and cos rho(x2, U) over uniform U drawn
    from the seed; x1 and x2 are unit representatives or make_point results."""
    x1, x2 = point_array(space, [x1, x2])
    reps = sample_uniform_batch(space, replicates, substream(seed))
    c12 = float(cos_distance_batch(space, x2, x1[None])[0])
    return c12, cos_distance_batch(space, x1, reps), cos_distance_batch(space, x2, reps)


def mc_funk_hecke(
    space: SpaceParams,
    i: int,
    j: int,
    x1,
    x2,
    replicates: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Estimate the zonal product integral over the space.

    Target: delta_ij * omega_d / a_i^2 * P_i(cos rho(x1, x2)); the
    integral of P_i(cos rho(x1, .)) P_j(cos rho(x2, .)) vanishes for
    distinct degrees. i and j by the whole-number rule, replicates by the count rule from 2,
    then both by the size cap (_replicates), as in mc_zonal_covariance and mc_recover_vn;
    seeds as substream reads them.
    """
    i, j = _whole(i, "degree"), _whole(j, "degree")
    replicates = _replicates(space, replicates, "replicates", max(i, j))
    c12, c1, c2 = _uniform_cosines(space, x1, x2, replicates, seed)
    samples = space.volume * jacobi_eval(i, space.geom, c1) * jacobi_eval(j, space.geom, c2)
    value, se = _mean_se(samples)
    if i == j:
        ai = a_constant(space, i)
        target = space.volume / (ai * ai) * jacobi_eval(i, space.geom, c12)
    else:
        target = 0.0
    return MCEstimate(float(value), float(se), replicates, float(target))


@dataclass
class ZonalCheck:
    """Mean, covariance, and cross-degree covariance of the zonal field."""

    mean: MCEstimate
    covariance: MCEstimate
    cross: MCEstimate


def mc_zonal_covariance(
    space: SpaceParams,
    n: int,
    x1,
    x2,
    replicates: int = 100_000,
    seed: int = 0,
) -> ZonalCheck:
    """Simulate Z_n(x) = a_n P_n(cos rho(x, U)) and check its moments.

    The mean targets 0, the covariance targets P_n(cos rho(x1, x2)), and
    the covariance of degree n at x1 with degree n + 1 at x2 targets 0. n from 1.
    """
    n = _whole(n, "degree")
    if n < 1:
        raise UsageError("the zonal field check needs degree n >= 1")
    k = n + 1
    replicates = _replicates(space, replicates, "replicates", k, 2)
    c12, c1, c2 = _uniform_cosines(space, x1, x2, replicates, seed)
    p = jacobi_all(k, space.geom, np.stack([c1, c2]))
    z1 = a_constant(space, n) * p[n, 0]
    z2 = a_constant(space, n) * p[n, 1]
    zk = a_constant(space, k) * p[k, 1]
    mean_v, mean_se = _mean_se(z1)
    cov_v, cov_se = _mean_se(z1 * z2)  # fields are exactly centred
    cross_v, cross_se = _mean_se(z1 * zk)
    cov_target = float(jacobi_eval(n, space.geom, c12))
    return ZonalCheck(
        mean=MCEstimate(float(mean_v), float(mean_se), replicates, 0.0),
        covariance=MCEstimate(float(cov_v), float(cov_se), replicates, cov_target),
        cross=MCEstimate(float(cross_v), float(cross_se), replicates, 0.0),
    )


def empirical_cov(
    realizations: list[Realization], point_pair: tuple[int, int], lag: float = 0.0
) -> MCEstimate:
    """Cross-covariance E[Z(x_a; t+lag) Z(x_b; t)^T] across an ensemble.

    Valid time offsets within each replicate are averaged first (variance
    reduction only); the standard error comes from the replicate count.
    The target is the model covariance at the realizations' truncation. realizations may be any
    iterable of at least 2 Realization objects; it is read once. point_pair holds two indices
    into the shared points, by the count rule, and lag is read by the lag rule of the real
    line, then must be realizable on the time grid.
    """
    try:
        realizations = list(realizations)
    except TypeError:
        raise UsageError(f"realizations must be an iterable of Realization objects, not a "
                         f"{type(realizations).__name__}") from None
    if len(realizations) < 2:
        raise UsageError("at least 2 realizations are required")
    try:  # every realization's fields, read in one pass
        seeds, point_sets, value_sets, models, grids, truncs = zip(
            *[(r.seed, r.points, r.values, r.model, r.times, r.trunc) for r in realizations])
    except AttributeError as exc:  # caught here, so a success pays no check per item
        raise UsageError(f"realizations must be Realization objects: {exc}") from None
    first = realizations[0]
    if first.model is None:
        raise UsageError("realizations must carry their model to locate the target")
    if len(set(seeds)) != len(realizations):
        raise UsageError("realizations must have distinct seeds")
    space, points = first.space, first.points
    # np.array_equal with the first's points, on stacks no larger than `values` below
    step = max(1, len(realizations) * first.values.nbytes // max(points.nbytes, 1))
    shared = [p.shape for p in point_sets].count(points.shape) == len(realizations) and all(
        (np.array(point_sets[k : k + step]) == points).all()
        for k in range(0, len(realizations), step)
    )
    if not (shared and all(r.model_hash == first.model_hash
                           for r, model in zip(realizations, models) if model is not first.model)
            and grids.count(first.times) == truncs.count(first.trunc) == len(realizations)):
        raise UsageError("realizations must share model, points, times, and truncation")
    try:
        a, b = (_count(i, "point index") for i in point_pair)
    except (TypeError, ValueError):  # UsageError is a ValueError
        a = b = len(points)
    if max(a, b) >= len(points):
        raise UsageError(f"point pair {_shown(point_pair, repr)} must be two integer indices in "
                         f"0..{len(points) - 1}")
    lag = _require_lag(REAL_LAGS, lag)  # realizable on the grid is checked below
    times = np.asarray(first.times)
    pairs = [
        (i, j)
        for i in range(len(times))
        for j in range(len(times))
        if abs((times[i] - times[j]) - lag) <= 1e-9
    ]
    if not pairs:
        raise UsageError(f"lag {lag} is not realizable on the time grid {first.times}")
    values = np.array(value_sets)  # (R, P, T, m)
    per_rep = np.mean(
        [values[:, a, i, :, None] * values[:, b, j, None, :] for i, j in pairs], axis=0
    )
    value, se = _mean_se(per_rep)
    cos_ab = cos_distance_batch(space, points[b], points[a : a + 1])
    rho = 0.0 if a == b else float(np.arccos(np.clip(cos_ab[0], -1, 1)))
    target = eval_cov(first.model, rho, lag, first.trunc)
    return MCEstimate(value, se, len(realizations), target)


def mc_recover_vn(
    realization: Realization,
    n: int,
    replicates_for_integral: int = 100_000,
    seed: int = 0,
) -> list[MCEstimate]:
    """Recover the degree-n coefficient path from the field by integration.

    V_n(t) = a_n^2 / (omega_d P_n(1)) * integral of Z(x; t) P_n(cos rho(x, U));
    the integral is estimated as omega_d times the average over fresh
    uniform abscissae. One estimate per recorded time; degrees beyond the
    truncation target zero.
    """
    if realization.latent_u is None or realization.latent_v is None:
        raise UsageError("realization lacks latent data; cannot recover coefficients")
    n = _whole(n, "degree")
    space = realization.space
    replicates = _replicates(space, replicates_for_integral, "replicates_for_integral", n)
    # the field at the fresh abscissae, and its samples: an (R, times, m) table each
    _sized(replicates * realization.latent_v[0].size, "replicates_for_integral")
    reps = sample_uniform_batch(space, replicates, substream(seed))
    c = cos_distance_batch(space, realization.latent_u, reps)
    # Field values at the fresh abscissae, rebuilt from the latent draws.
    steps = _recurrence(realization.trunc, space.geom.alpha, space.geom.beta)
    z_fresh = _jacobi_series(realization.trunc, space.geom, c, realization.latent_v, steps)
    an = a_constant(space, n)
    scale = an * an / jacobi_at_one(n, space.geom)
    samples = scale * jacobi_eval(n, space.geom, c)[:, None, None] * z_fresh  # (R, ntimes, m)
    value, se = _mean_se(samples)
    targets = realization.latent_v[n] if n <= realization.trunc else np.zeros(value.shape)
    return [
        MCEstimate(v, e, replicates, np.asarray(t, dtype=float))
        for v, e, t in zip(value, se, targets)
    ]


# --------------------------------------------------------------------------
# Closed-form identity checks
# --------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    """One verified identity: it passes when its relative error
    |value - target| / max(1, |target|) is within the stated tolerance."""

    name: str
    identity: str
    target: float
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return _rel_err(self.value, self.target) <= self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


@dataclass
class IdentityReport:
    space: str
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "space": self.space,
            "pass": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / max(1.0, abs(target))


def check_space_identities(space: SpaceParams) -> IdentityReport:
    """Verify the closed-form constants of one space against each other.

    Volume formula vs the integer multiple of the equal-dimension sphere
    volume, integrality of that multiple, the dimension bookkeeping
    d = 2*alpha + 2 and e = 2*beta + 2, a_n^2 P_n(1) = dim H_n, and
    integrality of dim H_n, for n up to 50.
    """
    a, b = space.geom.alpha, space.geom.beta
    w = weinstein_integer_value(a, b)
    worst_pair = worst_int = 0.0
    for n in range(51):
        an = a_constant(space, n)
        dim = dim_eigenspace(space, n)
        worst_pair = max(worst_pair, _rel_err(an * an * jacobi_at_one(n, space.geom), dim))
        worst_int = max(worst_int, abs(dim - round(dim)) / max(1.0, dim))
    rows = [
        ("volume_ratio", "omega_d = i(M) * volume(S^d)",
         space.weinstein * sphere_volume(space.d), space.volume, 1e-9),
        ("weinstein_integer",
         "i(M) = 2^(2a+1) G(a+3/2) G(b+1) / (sqrt(pi) G(a+b+2)) is an integer",
         float(round(w)), w, 1e-9),
        ("dimension_alpha", "d = 2*alpha + 2", float(space.d), 2.0 * a + 2.0, 0.0),
        ("dimension_beta", "e = 2*beta + 2", float(space.e), 2.0 * b + 2.0, 0.0),
        ("eigenspace_dimension", "a_n^2 * P_n(1) = dim H_n", 0.0, worst_pair, 1e-9),
        ("eigenspace_integrality", "dim H_n is a positive integer", 0.0, worst_int, 1e-9),
    ]
    return IdentityReport(space=space.label, checks=[IdentityCheck(*row) for row in rows])
