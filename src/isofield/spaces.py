"""Geometry, spectral constants, and uniform sampling on the supported spaces.

Supported spaces are the compact connected two-point homogeneous manifolds:
spheres S^d and the projective spaces over the reals, complexes, and
quaternions, plus the 16-dimensional octonionic plane at parameter level
only (its constants and series coefficients work; point sampling and
distances raise GeometryError). Distances are normalized so every closed
geodesic has length 2*pi, hence diameter pi.

Two (alpha, beta) parameter conventions coexist: the geometric pair, under
which every zonal function is R_n(cos rho) with a single formula, and the
Lie pair, which differs only on real projective spaces and feeds the
Laplace-Beltrami eigenvalues. All series expansions use the geometric pair.

Every decision that depends on the family (parameter pairs, dimension
rule, point layout, inner product, sampling) is one row of the
family table `_FAMILIES`, which every other function reads. A point set
is one (K, *ambient_shape) array of unit representatives.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GeometryError, ParameterError, UsageError
from .jacobi import JacobiParams, _check_degree
from .quaternions import qdot_abs


class SpaceFamily(Enum):
    SPHERE = "sphere"
    REAL_PROJECTIVE = "projR"
    COMPLEX_PROJECTIVE = "projC"
    QUATERNION_PROJECTIVE = "projH"
    OCTONION_PROJECTIVE = "projO"


_FAMILY_TAGS = {f.value: f for f in SpaceFamily}


@dataclass(frozen=True)
class SpaceParams:
    """Complete numeric description of one space M^d.

    geom/lie are the two Jacobi parameter conventions; p and q are the
    geometric root-space dimensions (p is also the dimension of the
    antipodal manifold), epsilon scales the Laplace spectrum index,
    volume is the canonical measure of the whole space, weinstein is the
    integer ratio volume / volume(S^d), and e is the dimension of the
    tangent span of geodesics into the antipodal manifold (e = 2*beta+2).
    """

    family: SpaceFamily
    d: int
    geom: JacobiParams
    lie: JacobiParams
    p: int
    q: int
    epsilon: int
    volume: float
    weinstein: int
    e: int

    @property
    def label(self) -> str:
        return f"{self.family.value}:{self.d}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, eq=False)
class Point:
    """A single point given by a unit-norm representative in the ambient space.

    Sphere: real unit vector of length d+1. Real projective: the same,
    modulo sign. Complex projective: complex unit vector of length d/2+1,
    modulo a unit-complex scalar. Quaternionic projective: array
    (d/4+1, 4) of quaternion components, modulo a unit-quaternion right
    scalar. These layouts are the `ambient` and `dtype` of the family
    table `_FAMILIES`; a point set stacks them into one array (see
    point_array). Gauge choices are never canonicalized; all consumers go
    through gauge-invariant inner products.
    """

    family: SpaceFamily
    d: int
    coords: np.ndarray = field(repr=False)


def sphere_volume(d: int) -> float:
    """Surface measure of the unit sphere S^d: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    return math.exp(
        math.log(2.0) + 0.5 * (d + 1) * math.log(math.pi) - math.lgamma(0.5 * (d + 1))
    )


def _volume_from_params(alpha: float, beta: float) -> float:
    return math.exp(
        (alpha + 1.0) * math.log(4.0 * math.pi)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )


def weinstein_integer_value(alpha: float, beta: float) -> float:
    """2^(2a+1) Gamma(a+3/2) Gamma(b+1) / (sqrt(pi) Gamma(a+b+2)), unrounded."""
    return math.exp(
        (2.0 * alpha + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.5)
        + math.lgamma(beta + 1.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma(alpha + beta + 2.0)
    )


def _cdot(reps, u):
    """sum_j conj(rep_j) u_j for each stacked representative, as one matmul of
    (1, n) rows, so that every row rounds as a single-pair dot product does."""
    return np.matmul(np.conj(reps)[..., None, :], u[:, None])[..., 0, 0]


@dataclass(frozen=True)
class _Family:
    """One row of the family table: every decision that depends on the family.

    pq: geometric (p, q), p the antipodal-manifold dimension, p + q + 1 = d;
    lie_pq and epsilon: the Lie convention where it differs. ambient(d) and
    dtype: one point representative (None: no point-level geometry). dot:
    inner products of stacked representatives with one representative.
    """

    pq: Callable[[int], tuple]
    admits: Callable[[int], bool]
    rule: str
    projective: bool = True
    lie_pq: Callable[[int], tuple] | None = None
    epsilon: int = 1
    ambient: Callable[[int], tuple] | None = None
    dtype: type = float
    dot: Callable = _cdot


_FAMILIES = {
    SpaceFamily.SPHERE: _Family(
        pq=lambda d: (0, d - 1), admits=lambda d: d >= 1, rule="d >= 1", projective=False,
        ambient=lambda d: (d + 1,),
    ),
    # S^d modulo sign: the root data, hence the Lie pair, are the sphere's,
    # and the Laplace spectrum is the sphere's at even degrees.
    SpaceFamily.REAL_PROJECTIVE: _Family(
        pq=lambda d: (d - 1, 0), admits=lambda d: d >= 2, rule="d >= 2",
        lie_pq=lambda d: (0, d - 1), epsilon=2, ambient=lambda d: (d + 1,),
    ),
    SpaceFamily.COMPLEX_PROJECTIVE: _Family(
        pq=lambda d: (d - 2, 1), admits=lambda d: d >= 4 and d % 2 == 0, rule="even d >= 4",
        ambient=lambda d: (d // 2 + 1,), dtype=complex,
    ),
    # Quaternion components on a trailing axis, modulo a right unit scalar.
    SpaceFamily.QUATERNION_PROJECTIVE: _Family(
        pq=lambda d: (d - 4, 3), admits=lambda d: d >= 8 and d % 4 == 0,
        rule="d in {8, 12, 16, ...}", ambient=lambda d: (d // 4 + 1, 4), dot=qdot_abs,
    ),
    SpaceFamily.OCTONION_PROJECTIVE: _Family(
        pq=lambda d: (8, 7), admits=lambda d: d == 16, rule="d == 16",
    ),
}


def _jacobi_pair(p: int, q: int) -> JacobiParams:
    return JacobiParams((p + q - 1) / 2.0, (q - 1) / 2.0)


MAX_DIMENSION = 1_000  # larger d overflows volume ratios (projR:2000) or bulk point samples


def make_space(family: SpaceFamily, d: int) -> SpaceParams:
    """Build the full parameter record for (family, d), d <= MAX_DIMENSION."""
    if int(d) != d:
        raise ParameterError(f"dimension must be an integer, got {d}")
    d = int(d)
    if d > MAX_DIMENSION:
        raise ParameterError(f"dimension {d} of {family.value} exceeds the cap of {MAX_DIMENSION}")
    row = _FAMILIES[family]
    if not row.admits(d):
        raise ParameterError(f"{family.value} requires {row.rule}, got d={d}")
    p, q = row.pq(d)
    geom = _jacobi_pair(p, q)
    lie = _jacobi_pair(*row.lie_pq(d)) if row.lie_pq else geom
    alpha, beta = geom.alpha, geom.beta
    volume = _volume_from_params(alpha, beta)
    w_raw = weinstein_integer_value(alpha, beta)
    w_int = round(w_raw)
    if abs(w_raw - w_int) > max(1e-9, 1e-12 * abs(w_raw)):
        raise ParameterError(
            f"volume ratio {w_raw} is not an integer for {family.value}:{d}"
        )
    e = round(2.0 * beta + 2.0)
    return SpaceParams(
        family=family,
        d=d,
        geom=geom,
        lie=lie,
        p=p,
        q=q,
        epsilon=row.epsilon,
        volume=volume,
        weinstein=int(w_int),
        e=int(e),
    )


def parse_space(label: str) -> SpaceParams:
    """Parse a 'family:dimension' designation such as 'sphere:2' or 'projC:4'."""
    try:
        tag, dim = label.split(":")
        family = _FAMILY_TAGS[tag]
        d = int(dim)
    except (ValueError, KeyError) as exc:
        raise ParameterError(
            f"bad space designation {label!r}; expected one of "
            f"{sorted(_FAMILY_TAGS)} followed by ':<dimension>'"
        ) from exc
    return make_space(family, d)


def all_reference_spaces() -> list[SpaceParams]:
    """One representative per family, used by identity checks and the CLI."""
    return [
        make_space(SpaceFamily.SPHERE, 2),
        make_space(SpaceFamily.REAL_PROJECTIVE, 3),
        make_space(SpaceFamily.COMPLEX_PROJECTIVE, 4),
        make_space(SpaceFamily.QUATERNION_PROJECTIVE, 8),
        make_space(SpaceFamily.OCTONION_PROJECTIVE, 16),
    ]


# ---------------------------------------------------------------------------
# Points: stacked representatives, sampling, distances
# ---------------------------------------------------------------------------

_DOT_CLAMP_TOL = 1e-12


def _point_family(space: SpaceParams) -> _Family:
    """The family's table row; GeometryError for a family without points."""
    row = _FAMILIES[space.family]
    if row.ambient is None:
        raise GeometryError(
            f"{space.label} is supported at parameter level only; "
            "it has no point sampling or distances"
        )
    return row


def ambient_shape(space: SpaceParams) -> tuple:
    """Shape of a single point representative in ambient coordinates."""
    return _point_family(space).ambient(space.d)


def _stack(space: SpaceParams, reps) -> np.ndarray:
    """reps as a (K, *ambient_shape) array of the family's dtype."""
    row = _point_family(space)
    shape = row.ambient(space.d)
    reps = np.asarray(reps)
    if reps.shape[1:] != shape or not np.can_cast(reps.dtype, row.dtype):
        raise UsageError(
            f"coordinates of shape {reps.shape[1:]} and type {reps.dtype} do not match "
            f"{space.label} ambient shape {shape} of type {np.dtype(row.dtype)}"
        )
    return reps.astype(row.dtype, copy=False)


def _norms(reps: np.ndarray) -> np.ndarray:
    """Euclidean norm of each stacked representative, keeping its axes; inf
    where the squares overflow, which the callers reject."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(np.abs(reps) ** 2, tuple(range(1, reps.ndim)), keepdims=True))


def normalize_points(space: SpaceParams, reps) -> np.ndarray:
    """Stacked coordinates (K, *ambient_shape), each row scaled to unit norm."""
    reps = _stack(space, reps)
    norms = _norms(reps)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        raise UsageError(f"point representative {bad[0]} must be nonzero and finite")
    return reps / norms


def point_array(space: SpaceParams, points) -> np.ndarray:
    """A point set as one (K, *ambient_shape) array of unit representatives.

    Takes such an array, checked but never renormalized, or a sequence of
    Points of this space, stacked once.
    """
    if not isinstance(points, np.ndarray):
        points = list(points)
        if points and isinstance(points[0], Point):
            _check_same_space(space, *points)
            points = [p.coords for p in points]
        points = np.array(points) if points else np.empty((0, *ambient_shape(space)))
    reps = _stack(space, points)
    unit = np.abs(_norms(reps).ravel() - 1.0) <= _DOT_CLAMP_TOL
    if not unit.all():
        bad = np.flatnonzero(~unit)[0]
        raise UsageError(f"point {bad} is not a finite unit representative of {space.label}")
    return reps


def points_to_reals(reps: np.ndarray) -> np.ndarray:
    """(K, r) real rows of stacked representatives, complex coordinates as
    (re, im) pairs: the layout of point files and of the sidecar."""
    reals = np.ascontiguousarray(reps).view(np.float64)
    return reals.reshape(len(reals), math.prod(reals.shape[1:]))


def points_sha256(reps: np.ndarray) -> str:
    """SHA-256 of points_to_reals(reps) as little-endian float64 in C order:
    the sidecar's fingerprint of a point set."""
    return hashlib.sha256(points_to_reals(reps).astype("<f8").tobytes()).hexdigest()


def points_from_reals(space: SpaceParams, reals) -> np.ndarray:
    """Stacked representatives (not normalized) from points_to_reals rows."""
    row = _point_family(space)
    shape = row.ambient(space.d)
    reals = np.ascontiguousarray(reals, dtype=float)
    width = math.prod(shape) * (2 if row.dtype is complex else 1)
    if reals.ndim != 2 or reals.shape[1] != width:
        raise UsageError(
            f"{space.label} points need {width} reals per row, got rows of shape {reals.shape[1:]}"
        )
    return reals.view(row.dtype).reshape(len(reals), *shape)


def make_point(space: SpaceParams, coords) -> Point:
    """Wrap ambient coordinates as a Point, normalizing the representative."""
    rep = normalize_points(space, np.asarray(coords)[None])[0]
    return Point(family=space.family, d=space.d, coords=rep)


def _check_same_space(space: SpaceParams, *pts: Point) -> None:
    _point_family(space)
    for pt in pts:
        if not isinstance(pt, Point):
            raise UsageError(f"expected a Point of {space.label}, got {type(pt).__name__}")
        if pt.family is not space.family or pt.d != space.d:
            raise UsageError(
                f"point of {pt.family.value}:{pt.d} used with space {space.label}"
            )


def _inner(space: SpaceParams, reps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Clamped family inner product of each stacked representative with u."""
    row = _point_family(space)
    t = row.dot(reps, u)
    t = np.asarray(np.abs(t) if row.projective else t, dtype=float)
    if (np.abs(t) > 1.0 + _DOT_CLAMP_TOL).any():
        raise UsageError("inner product exceeds 1 beyond tolerance; point not normalized?")
    return np.minimum(np.maximum(t, -1.0), 1.0)


def cos_distance(space: SpaceParams, x: Point, y: Point) -> float:
    _check_same_space(space, x)
    return float(cos_distance_batch(space, y, x.coords[None])[0])


def cos_distance_batch(space: SpaceParams, x: Point, reps: np.ndarray) -> np.ndarray:
    """cos rho(rep, x) for each of a stacked batch of representatives, rounding
    as cos_distance(space, rep, x) does: t on spheres, cos(2 arccos t) = 2t^2 - 1
    on projective spaces."""
    _check_same_space(space, x)
    t = _inner(space, np.asarray(reps), x.coords)
    return 2.0 * t * t - 1.0 if _FAMILIES[space.family].projective else t


def distance(space: SpaceParams, x: Point, y: Point) -> float:
    """Geodesic distance in [0, pi].

    Spheres: arccos of the dot product. Projective spaces:
    2 arccos |<x, y>| with the family's inner product, which puts the
    antipodal manifold exactly at distance pi. Taken from the inner
    product, not from arccos of cos_distance, which loses precision near 0.
    """
    _check_same_space(space, x, y)
    t = _inner(space, x.coords[None], y.coords)[0]
    return float(2.0 * np.arccos(t) if _FAMILIES[space.family].projective else np.arccos(t))


def sample_uniform_batch(space: SpaceParams, k: int, rng: np.random.Generator) -> np.ndarray:
    """k stacked representatives of independent uniform points, equal to k
    successive sample_uniform draws.

    Standard Gaussian vectors in the ambient real coordinates, normalized;
    the induced law on the quotient is invariant under the isometry group,
    hence is the unique uniform probability measure. Each complex point
    draws its real parts, then its imaginary parts.
    """
    row = _point_family(space)
    shape = row.ambient(space.d)
    if row.dtype is complex:
        g = rng.standard_normal((k, 2, *shape))
        g = g[:, 0] + 1j * g[:, 1]
    else:
        g = rng.standard_normal((k, *shape))
    return g / _norms(g)


def sample_uniform(space: SpaceParams, rng: np.random.Generator) -> Point:
    """One uniform point; deterministic given the generator state."""
    rep = sample_uniform_batch(space, 1, rng)[0]
    return Point(family=space.family, d=space.d, coords=rep)


# ---------------------------------------------------------------------------
# Spectral constants
# ---------------------------------------------------------------------------


def a_constant(space: SpaceParams, n: int) -> float:
    """Normalization a_n of the zonal random field at degree n.

    a_n^2 * P_n(1) equals the eigenspace dimension; a_0 = 1 exactly.
    """
    n = _check_degree(n)
    if n == 0:
        return 1.0
    a, b = space.geom.alpha, space.geom.beta
    return math.exp(
        0.5
        * (
            math.lgamma(b + 1.0)
            + math.log(2.0 * n + a + b + 1.0)
            + math.lgamma(n + a + b + 1.0)
            - math.lgamma(a + b + 2.0)
            - math.lgamma(n + b + 1.0)
        )
    )


def dim_eigenspace(space: SpaceParams, n: int) -> float:
    """Dimension of the degree-n Laplace eigenspace (a positive integer)."""
    n = _check_degree(n)
    if n == 0:
        return 1.0
    a, b = space.geom.alpha, space.geom.beta
    return math.exp(
        math.log(2.0 * n + a + b + 1.0)
        + math.lgamma(b + 1.0)
        + math.lgamma(n + a + b + 1.0)
        + math.lgamma(n + a + 1.0)
        - math.lgamma(a + 1.0)
        - math.lgamma(a + b + 2.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + b + 1.0)
    )


def laplace_eigenvalue(space: SpaceParams, n: int) -> float:
    """Laplace-Beltrami eigenvalue -eps*n*(eps*n + alpha + beta + 1), Lie convention."""
    n = _check_degree(n)
    eps = space.epsilon
    return -eps * n * (eps * n + space.lie.alpha + space.lie.beta + 1.0)

