"""Quaternion arrays stored as (..., 4) float components (w, x, y, z)."""

import numpy as np

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def qmul(q1, q2):
    """Hamilton product, broadcasting over leading axes."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(q1, dtype=float), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(q2, dtype=float), -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def qconj(q):
    return np.asarray(q, dtype=float) * _CONJ_SIGNS


def qnorm(q):
    q = np.asarray(q, dtype=float)
    return np.sqrt(np.sum(q * q, axis=-1))


def qdot_abs(x, y):
    """|sum_k conj(x_k) y_k| for quaternion vectors shaped (..., k, 4).

    The modulus is invariant under right multiplication of x and y by unit
    quaternions, which makes it usable on gauge classes.
    """
    prod = qmul(qconj(x), y)
    return qnorm(np.sum(prod, axis=-2))
