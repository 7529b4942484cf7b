"""Jacobi polynomials, their normalization constants, and Gauss-Jacobi quadrature.

Everything here is controlled by a parameter pair (alpha, beta) with
alpha, beta > -1, the exponents of the orthogonality weight
(1-x)^alpha (1+x)^beta on [-1, 1]. Evaluation uses the three-term
recurrence ascending in degree, which is stable on [-1, 1], in one pass
over all degrees (jacobi_all); gamma-function ratios are computed in log
space so that degrees up to ~100 with alpha as large as 7 do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ParameterError

# Arguments may exceed [-1, 1] by rounding of cosine distances; clip inside
# this band, reject beyond it.
X_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair of the weight (1-x)^alpha (1+x)^beta, both > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ParameterError(
                f"Jacobi parameters must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _check_degree(n, name: str = "degree") -> int:
    """n as an int; ParameterError naming it unless n is a finite nonnegative integer."""
    if not math.isfinite(n) or n < 0 or int(n) != n:
        raise ParameterError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def _clamp_x(x):
    x = np.asarray(x, dtype=float)
    # one reduction; NaN fails the comparison and is rejected too
    if not (np.abs(x) <= 1.0 + X_CLAMP_TOL).all():
        raise DomainError("argument is NaN or outside [-1, 1] beyond clamp tolerance")
    return np.minimum(np.maximum(x, -1.0), 1.0)


def jacobi_all(N: int, params: JacobiParams, x) -> np.ndarray:
    """Every degree 0..N of the Jacobi polynomial at x, shape (N+1, *x.shape).

    One pass of the three-term recurrence ascending in degree; row n is
    P_n(x). Inputs within 1e-12 of the interval are clamped; anything
    farther out, or NaN, raises DomainError.
    """
    N = _check_degree(N)
    a, b = params.alpha, params.beta
    x = _clamp_x(x)
    p = np.empty((N + 1,) + x.shape)
    p[0] = 1.0
    if N >= 1:
        p[1] = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, N + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) * (2.0 * k + a + b - 2.0)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p[k] = ((c2 + c3 * x) * p[k - 1] - c4 * p[k - 2]) / c1
    return p


def jacobi_eval(n: int, params: JacobiParams, x):
    """Evaluate the degree-n Jacobi polynomial at x (scalar or array):
    the last row of jacobi_all(n, params, x)."""
    p = jacobi_all(n, params, x)[-1]
    return float(p) if p.ndim == 0 else p


def jacobi_at_one(n: int, params: JacobiParams) -> float:
    """Value at x = 1: Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1))."""
    n = _check_degree(n)
    a = params.alpha
    return math.exp(
        math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0)
    )


def jacobi_normalized(n: int, params: JacobiParams, x):
    """P_n(x) / P_n(1); bounded by 1 in absolute value on [-1, 1]."""
    return jacobi_eval(n, params, x) / jacobi_at_one(n, params)


def jacobi_norm_constant(j: int, params: JacobiParams) -> float:
    """L2 norm squared of P_j against the weight (1-x)^alpha (1+x)^beta.

    2^(a+b+1) / (2j+a+b+1) * Gamma(j+a+1) Gamma(j+b+1) / (j! Gamma(j+a+b+1)).
    """
    j = _check_degree(j)
    a, b = params.alpha, params.beta
    if j == 0:
        # (a+b+1) Gamma(a+b+1) folded into Gamma(a+b+2): needed when
        # a+b+1 == 0 (unit-circle parameters a = b = -1/2).
        return math.exp(
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
    return math.exp(
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(j + a + 1.0)
        + math.lgamma(j + b + 1.0)
        - math.lgamma(j + 1.0)
        - math.lgamma(j + a + b + 1.0)
    ) / (2.0 * j + a + b + 1.0)


def weight_total_mass(params: JacobiParams) -> float:
    """Integral of (1-x)^alpha (1+x)^beta over [-1, 1]."""
    return jacobi_norm_constant(0, params)


def gauss_jacobi(order: int, params: JacobiParams) -> QuadratureRule:
    """Gauss-Jacobi rule by the Golub-Welsch symmetric-tridiagonal eigenvalue method.

    Builds the Jacobi matrix from the monic recurrence coefficients; nodes
    are its eigenvalues, weights come from the first eigenvector components
    scaled by the total weight mass. A rule of order K integrates
    polynomials of degree <= 2K-1 exactly against the weight.
    """
    order = _check_degree(order, "quadrature order")
    if order < 1:
        raise ParameterError(f"quadrature order must be a positive integer, got {order}")
    a, b = params.alpha, params.beta
    ab = a + b
    k = np.arange(order, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        diag = (b * b - a * a) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    diag[0] = (b - a) / (ab + 2.0)
    off = np.zeros(max(order - 1, 0))
    if order > 1:
        j = np.arange(2, order, dtype=float)
        s = 2.0 * j + ab
        off[1:] = np.sqrt(4.0 * j * (j + a) * (j + b) * (j + ab) / (s * s * (s * s - 1.0)))
        # j = 1 in cancelled form: (1+a+b) divides out of (s^2 - 1), which
        # avoids 0/0 when a + b == -1.
        off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + ab) ** 2 * (3.0 + ab)))
    jacobi_matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        nodes, vectors = np.linalg.eigh(jacobi_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"tridiagonal eigen solver failed for order={order}, params={params}"
        ) from exc
    weights = weight_total_mass(params) * vectors[0, :] ** 2
    return QuadratureRule(nodes=nodes, weights=weights)
