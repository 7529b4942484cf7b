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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GeometryError, ParameterError, UsageError
from .jacobi import JacobiParams, jacobi_normalized
from .quaternions import qdot_abs, qmul, qrandn_unit


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
    """A point given by a unit-norm representative in the ambient space.

    Sphere: real unit vector of length d+1. Real projective: the same,
    modulo sign. Complex projective: complex unit vector of length d/2+1,
    modulo a unit-complex scalar. Quaternionic projective: array
    (d/4+1, 4) of quaternion components, modulo a unit-quaternion right
    scalar. Gauge choices are never canonicalized; all consumers go
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


_GEOM_BETA = {
    SpaceFamily.SPHERE: lambda d: (d - 2) / 2.0,
    SpaceFamily.REAL_PROJECTIVE: lambda d: -0.5,
    SpaceFamily.COMPLEX_PROJECTIVE: lambda d: 0.0,
    SpaceFamily.QUATERNION_PROJECTIVE: lambda d: 1.0,
    SpaceFamily.OCTONION_PROJECTIVE: lambda d: 3.0,
}

# Geometric (p, q): p is the antipodal-manifold dimension, p + q + 1 = d.
_GEOM_PQ = {
    SpaceFamily.SPHERE: lambda d: (0, d - 1),
    SpaceFamily.REAL_PROJECTIVE: lambda d: (d - 1, 0),
    SpaceFamily.COMPLEX_PROJECTIVE: lambda d: (d - 2, 1),
    SpaceFamily.QUATERNION_PROJECTIVE: lambda d: (d - 4, 3),
    SpaceFamily.OCTONION_PROJECTIVE: lambda d: (8, 7),
}


def _check_family_dimension(family: SpaceFamily, d: int) -> None:
    ok = {
        SpaceFamily.SPHERE: d >= 1,
        SpaceFamily.REAL_PROJECTIVE: d >= 2,
        SpaceFamily.COMPLEX_PROJECTIVE: d >= 4 and d % 2 == 0,
        SpaceFamily.QUATERNION_PROJECTIVE: d >= 8 and d % 4 == 0,
        SpaceFamily.OCTONION_PROJECTIVE: d == 16,
    }[family]
    if not ok:
        constraint = {
            SpaceFamily.SPHERE: "d >= 1",
            SpaceFamily.REAL_PROJECTIVE: "d >= 2",
            SpaceFamily.COMPLEX_PROJECTIVE: "even d >= 4",
            SpaceFamily.QUATERNION_PROJECTIVE: "d in {8, 12, 16, ...}",
            SpaceFamily.OCTONION_PROJECTIVE: "d == 16",
        }[family]
        raise ParameterError(f"{family.value} requires {constraint}, got d={d}")


def make_space(family: SpaceFamily, d: int) -> SpaceParams:
    """Build the full parameter record for (family, d)."""
    if int(d) != d:
        raise ParameterError(f"dimension must be an integer, got {d}")
    d = int(d)
    _check_family_dimension(family, d)
    alpha = (d - 2) / 2.0
    beta = _GEOM_BETA[family](d)
    geom = JacobiParams(alpha, beta)
    p, q = _GEOM_PQ[family](d)
    # The Lie pair differs from the geometric one only for real projective
    # spaces, where the root data coincide with the sphere's.
    lie_p, lie_q = (0, d - 1) if family is SpaceFamily.REAL_PROJECTIVE else (p, q)
    lie = JacobiParams((lie_p + lie_q - 1) / 2.0, (lie_q - 1) / 2.0)
    epsilon = 2 if family is SpaceFamily.REAL_PROJECTIVE else 1
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
        epsilon=epsilon,
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
# Points: construction, sampling, distances
# ---------------------------------------------------------------------------

_DOT_CLAMP_TOL = 1e-12


def ambient_shape(space: SpaceParams) -> tuple:
    """Shape of a single point representative in ambient coordinates."""
    f = space.family
    if f in (SpaceFamily.SPHERE, SpaceFamily.REAL_PROJECTIVE):
        return (space.d + 1,)
    if f is SpaceFamily.COMPLEX_PROJECTIVE:
        return (space.d // 2 + 1,)
    if f is SpaceFamily.QUATERNION_PROJECTIVE:
        return (space.d // 4 + 1, 4)
    raise GeometryError(
        "the octonionic projective plane is supported at parameter level only"
    )


def _rep_norm(space: SpaceParams, coords: np.ndarray):
    if space.family is SpaceFamily.COMPLEX_PROJECTIVE:
        return np.sqrt(np.sum(np.abs(coords) ** 2, axis=-1))
    if space.family is SpaceFamily.QUATERNION_PROJECTIVE:
        return np.sqrt(np.sum(coords * coords, axis=(-2, -1)))
    return np.sqrt(np.sum(coords * coords, axis=-1))


def make_point(space: SpaceParams, coords) -> Point:
    """Wrap ambient coordinates as a Point, normalizing the representative."""
    want_complex = space.family is SpaceFamily.COMPLEX_PROJECTIVE
    coords = np.asarray(coords, dtype=complex if want_complex else float)
    if coords.shape != ambient_shape(space):
        raise UsageError(
            f"coordinates of shape {coords.shape} do not match {space.label} "
            f"ambient shape {ambient_shape(space)}"
        )
    norm = float(_rep_norm(space, coords))
    if not np.isfinite(norm) or norm == 0.0:
        raise UsageError("point representative must be nonzero and finite")
    return Point(family=space.family, d=space.d, coords=coords / norm)


# The family's inner product of a point x with stacked representatives:
# signed on spheres, absolute on projective spaces (gauge invariant).
_INNER = {
    SpaceFamily.SPHERE: lambda x, reps: reps @ x,
    SpaceFamily.REAL_PROJECTIVE: lambda x, reps: np.abs(reps @ x),
    SpaceFamily.COMPLEX_PROJECTIVE: lambda x, reps: np.abs(reps @ np.conj(x)),
    SpaceFamily.QUATERNION_PROJECTIVE: qdot_abs,
}


def _check_same_space(space: SpaceParams, *pts: Point) -> None:
    if space.family not in _INNER:
        raise GeometryError(
            "the octonionic projective plane has no point-level distance; "
            "only parameter-level operations are supported"
        )
    for pt in pts:
        if pt.family is not space.family or pt.d != space.d:
            raise UsageError(
                f"point of {pt.family.value}:{pt.d} used with space {space.label}"
            )


def _clamp_dot(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _DOT_CLAMP_TOL):
        raise UsageError("inner product exceeds 1 beyond tolerance; point not normalized?")
    return np.clip(t, -1.0, 1.0)


def _inner(space: SpaceParams, x: Point, reps: np.ndarray):
    """Clamped family inner product of x with each representative in reps."""
    return _clamp_dot(_INNER[space.family](x.coords, reps))


def _cos_rho(space: SpaceParams, x: Point, reps: np.ndarray):
    """cos of distance between x and each representative in reps (batch-last-axes):
    t on spheres, cos(2 arccos t) = 2t^2 - 1 on projective spaces."""
    t = _inner(space, x, reps)
    return t if space.family is SpaceFamily.SPHERE else 2.0 * t * t - 1.0


def cos_distance(space: SpaceParams, x: Point, y: Point) -> float:
    _check_same_space(space, x, y)
    return float(_cos_rho(space, x, y.coords))


def cos_distance_batch(space: SpaceParams, x: Point, reps: np.ndarray) -> np.ndarray:
    """cos rho(x, .) against a stacked batch of representatives."""
    _check_same_space(space, x)
    return np.asarray(_cos_rho(space, x, reps))


def distance(space: SpaceParams, x: Point, y: Point) -> float:
    """Geodesic distance in [0, pi].

    Spheres: arccos of the dot product. Projective spaces:
    2 arccos |<x, y>| with the family's inner product, which puts the
    antipodal manifold exactly at distance pi. Taken from the inner
    product, not from arccos of cos_distance, which loses precision near 0.
    """
    _check_same_space(space, x, y)
    t = _inner(space, x, y.coords)
    return float(np.arccos(t) if space.family is SpaceFamily.SPHERE else 2.0 * np.arccos(t))


def zonal(space: SpaceParams, n: int, x: Point, y: Point) -> float:
    """Normalized zonal function R_n(cos rho(x, y)) with geometric parameters."""
    return float(jacobi_normalized(n, space.geom, cos_distance(space, x, y)))


def sample_uniform_batch(space: SpaceParams, k: int, rng: np.random.Generator) -> np.ndarray:
    """k stacked representatives of independent uniform points.

    Standard Gaussian vectors in the ambient real coordinates, normalized;
    the induced law on the quotient is invariant under the isometry group,
    hence is the unique uniform probability measure.
    """
    f = space.family
    if f in (SpaceFamily.SPHERE, SpaceFamily.REAL_PROJECTIVE):
        g = rng.standard_normal((k, space.d + 1))
        return g / np.linalg.norm(g, axis=-1, keepdims=True)
    if f is SpaceFamily.COMPLEX_PROJECTIVE:
        n = space.d // 2 + 1
        g = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        return g / np.sqrt(np.sum(np.abs(g) ** 2, axis=-1, keepdims=True))
    if f is SpaceFamily.QUATERNION_PROJECTIVE:
        n = space.d // 4 + 1
        g = rng.standard_normal((k, n, 4))
        return g / np.sqrt(np.sum(g * g, axis=(-2, -1)))[:, None, None]
    raise GeometryError(
        "the octonionic projective plane cannot be sampled; "
        "only parameter-level operations are supported"
    )


def sample_uniform(space: SpaceParams, rng: np.random.Generator) -> Point:
    """One uniform point; deterministic given the generator state."""
    rep = sample_uniform_batch(space, 1, rng)[0]
    return Point(family=space.family, d=space.d, coords=rep)


def regauge(space: SpaceParams, x: Point, rng: np.random.Generator) -> Point:
    """Replace the representative by a random equivalent one (same point)."""
    _check_same_space(space, x)
    f = space.family
    if f is SpaceFamily.SPHERE:
        return x
    if f is SpaceFamily.REAL_PROJECTIVE:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return Point(x.family, x.d, sign * x.coords)
    if f is SpaceFamily.COMPLEX_PROJECTIVE:
        phase = np.exp(2j * math.pi * rng.random())
        return Point(x.family, x.d, x.coords * phase)
    lam = qrandn_unit(rng)  # quaternionic: the only family left with points
    return Point(x.family, x.d, qmul(x.coords, lam))


def points_equal(space: SpaceParams, x: Point, y: Point, tol: float = 1e-9) -> bool:
    """Gauge-invariant equality: zero distance within tolerance."""
    return distance(space, x, y) <= tol


# ---------------------------------------------------------------------------
# Spectral constants
# ---------------------------------------------------------------------------


def a_constant(space: SpaceParams, n: int) -> float:
    """Normalization a_n of the zonal random field at degree n.

    a_n^2 * P_n(1) equals the eigenspace dimension; a_0 = 1 exactly.
    """
    if n < 0 or int(n) != n:
        raise ParameterError(f"degree must be a nonnegative integer, got {n}")
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
    if n < 0 or int(n) != n:
        raise ParameterError(f"degree must be a nonnegative integer, got {n}")
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
    if n < 0 or int(n) != n:
        raise ParameterError(f"degree must be a nonnegative integer, got {n}")
    eps = space.epsilon
    return -eps * n * (eps * n + space.lie.alpha + space.lie.beta + 1.0)


def funk_hecke_eigenvalue(space: SpaceParams, n: int) -> float:
    """omega_d / a_n^2: the zonal-kernel integral eigenvalue at degree n."""
    an = a_constant(space, n)
    return space.volume / (an * an)
