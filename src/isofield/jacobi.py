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

from .errors import DomainError, NumericError, ParameterError, _real, _sized, _whole

# Arguments may exceed [-1, 1] by rounding of cosine distances; clip inside
# this band, reject beyond it.
X_CLAMP_TOL = 1e-12
_SERIES_BLOCK = 1 << 12  # abscissae per Jacobi table of _jacobi_series
_STIRLING_DEGREE = 10**5  # from this degree on, Gamma ratios come from _log_gamma_ratio
_STEP_WORDS = 22  # 8-byte words one _recurrence step holds: four floats, their tuple


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair of the weight (1-x)^alpha (1+x)^beta, both > -1: real-number rule."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, _real(getattr(self, name), name, ParameterError))
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ParameterError(
                f"Jacobi parameters must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _log_gamma_ratio(x: float, d: float) -> float:
    """log Gamma(x + d) - log Gamma(x) for x >= _STIRLING_DEGREE, where two lgamma values of
    size x log x would cancel: the difference of their Stirling series, whose next term,
    O(d / x^4), is below a float's resolution of the result."""
    return d * math.log(x) + (x + d - 0.5) * math.log1p(d / x) - d - d / (12.0 * x * (x + d))


def _exp(x: float) -> float:
    """math.exp(x), or inf where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def jacobi_all(N: int, params: JacobiParams, x) -> np.ndarray:
    """Every degree 0..N of the Jacobi polynomial at x, shape (N+1, *x.shape).

    One pass of the three-term recurrence ascending in degree; row n is
    P_n(x). N by the whole-number rule, and by the size cap on its N + 1 rows of the table
    and of the recurrence. Inputs within 1e-12 of the interval are clamped; anything farther
    out, or NaN, raises DomainError.
    """
    N = _whole(N, "degree")
    x = np.asarray(x, dtype=float)
    _sized((N + 1) * (x.size + _STEP_WORDS), "degree")
    # one reduction; NaN fails the comparison and is rejected too
    if not (np.abs(x) <= 1.0 + X_CLAMP_TOL).all():
        raise DomainError("argument is NaN or outside [-1, 1] beyond clamp tolerance")
    return _jacobi_table(N, params, np.minimum(np.maximum(x, -1.0), 1.0),
                         _recurrence(N, params.alpha, params.beta))


def _jacobi_table(N: int, params: JacobiParams, x: np.ndarray, steps) -> np.ndarray:
    """jacobi_all's table for a checked N and a float array x in [-1, 1], from _recurrence steps."""
    a, b = params.alpha, params.beta
    p = np.empty((N + 1,) + x.shape)
    p[0] = 1.0
    if N >= 1:
        p[1] = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k, (c1, c2, c3, c4) in zip(range(2, N + 1), steps):
        p[k] = ((c2 + c3 * x) * p[k - 1] - c4 * p[k - 2]) / c1
    return p


def _jacobi_series(N: int, params: JacobiParams, x: np.ndarray, coeffs, steps) -> np.ndarray:
    """sum_n coeffs[n] P_n(x), n = 0..N, shaped (*x.shape, *coeffs.shape[1:]), for x a 0-d (run on
    numpy scalars) or 1-d float array in [-1, 1], from steps as _jacobi_table reads them. One
    Jacobi table per _SERIES_BLOCK abscissae; each value is added degree by degree onto zeros,
    so its bits depend on no other abscissa. einsum adds so except into one value, a dot
    product: there accumulate adds in order, and + 0.0 gives the +0.0 that a sum from zeros
    gives when every term is -0.0."""
    terms = np.asarray(coeffs, dtype=float).reshape(N + 1, -1)  # (degrees, values per abscissa)
    out = np.empty((x.size, terms.shape[1]))
    if x.ndim and 1 < out.size and x.size <= _SERIES_BLOCK:  # one block: its table, one einsum
        np.einsum("np,nk->pk", _jacobi_table(N, params, x, steps), terms, out=out)
        return out.reshape(x.shape + np.shape(coeffs)[1:])
    for k in range(0, x.size, _SERIES_BLOCK):
        rows = out[k:k + _SERIES_BLOCK]
        table = _jacobi_table(N, params, x[k:k + _SERIES_BLOCK] if x.ndim else x[()], steps)
        if rows.size > 1:
            np.einsum("np,nk->pk", table.reshape(N + 1, -1), terms, out=rows)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # callers name a non-finite sum
                rows[0] = np.add.accumulate(table.reshape(-1) * terms[:, 0])[-1] + 0.0
        del table  # freed before the next block's is built
    return out.reshape(x.shape + np.shape(coeffs)[1:])


def _recurrence(N: int, a, b) -> tuple:
    """The coefficients (c1, c2, c3, c4) of each recurrence step k = 2..N, the same for any N."""
    return tuple((2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0),
                  (2.0 * k + a + b - 1.0) * (a * a - b * b),
                  (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) * (2.0 * k + a + b - 2.0),
                  2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b))
                 for k in range(2, N + 1))


def jacobi_eval(n: int, params: JacobiParams, x):
    """Evaluate the degree-n Jacobi polynomial at x (scalar or array):
    the last row of jacobi_all(n, params, x), n by the whole-number rule."""
    p = jacobi_all(n, params, x)[-1]
    return float(p) if p.ndim == 0 else p


def jacobi_at_one(n: int, params: JacobiParams) -> float:
    """Value at x = 1: Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1)); inf past a float.
    n by the whole-number rule."""
    n = _whole(n, "degree")
    a = params.alpha
    if n >= _STIRLING_DEGREE:
        return _exp(_log_gamma_ratio(n + 1.0, a) - math.lgamma(a + 1.0))
    return _exp(math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0))


def jacobi_normalized(n: int, params: JacobiParams, x):
    """P_n(x) / P_n(1); bounded by 1 in absolute value on [-1, 1]. n by the whole-number rule."""
    return jacobi_eval(n, params, x) / jacobi_at_one(n, params)


def jacobi_norm_constant(j: int, params: JacobiParams) -> float:
    """L2 norm squared of P_j against the weight (1-x)^alpha (1+x)^beta.

    2^(a+b+1) / (2j+a+b+1) * Gamma(j+a+1) Gamma(j+b+1) / (j! Gamma(j+a+b+1)); inf past a float.
    j by the whole-number rule.
    """
    j = _whole(j, "degree")
    a, b = params.alpha, params.beta
    if j == 0:
        # (a+b+1) Gamma(a+b+1) folded into Gamma(a+b+2): needed when
        # a+b+1 == 0 (unit-circle parameters a = b = -1/2).
        return _exp(
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
    if j >= _STIRLING_DEGREE:
        return _exp((a + b + 1.0) * math.log(2.0) + _log_gamma_ratio(j + 1.0, a)
                    - _log_gamma_ratio(j + b + 1.0, a)) / (2.0 * j + a + b + 1.0)
    return _exp(
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

    The Jacobi matrix is read off the recurrence that evaluates every P_n (_recurrence):
    x P_{k-1} = (c1/c3) P_k - (c2/c3) P_{k-1} + (c4/c3) P_{k-2}, symmetrized, with row 0
    from P_1. Nodes are its eigenvalues, weights the squared first eigenvector components
    scaled by the total weight mass. A rule of order K integrates polynomials of degree
    <= 2K-1 exactly against the weight. order by the whole-number rule, from 1, and by the
    size cap on its order x order matrix and its recurrence.
    """
    order = _whole(order, "quadrature order", 1)
    _sized(order * (order + _STEP_WORDS), "quadrature order")
    a, b = params.alpha, params.beta
    c1, c2, c3, c4 = np.reshape(_recurrence(order, a, b), (-1, 4)).T  # steps k = 2..order
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], -c2 / c3))
    off = np.sqrt(np.concatenate(([2.0 / (a + b + 2.0)], c1[:-1] / c3[:-1])) * (c4 / c3))
    jacobi_matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        nodes, vectors = np.linalg.eigh(jacobi_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"tridiagonal eigen solver failed for order={order}, params={params}"
        ) from exc
    weights = weight_total_mass(params) * vectors[0, :] ** 2
    return QuadratureRule(nodes=nodes, weights=weights)
