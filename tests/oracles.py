"""Independent reference implementations the tests check the library against.

Nothing in here calls back into the code paths under test: polynomial
values come from the explicit finite sum, integrals from beta-function
moments, eigenspace dimensions from high-precision gamma evaluation,
moving-average covariances from direct simulation of the process,
exponential-kernel paths from a Cholesky factor of the time-grid correlation,
moving-average paths from one normal draw per time, whole realizations from one
fresh substream and one per-time path per degree,
values CSVs and the eval-cov, validate and spectrum tables from csv.writer one
row at a time,
covariance partial sums from one += per degree, and
space-time validity reports from one kernel call per (degree, lag).
Some are the library's own pieces composed the long way: coefficient roots
one degree at a time, zonal values one point pair at a time, quaternion
moduli as qnorm of a sum of qmul(qconj(x), y) products.
"""

import csv
import io
import json
import math

import numpy as np


def pochhammer(a: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def jacobi_explicit_sum(n: int, alpha: float, beta: float, x: float) -> float:
    """Degree-n Jacobi value from the explicit binomial sum.

    Written with rising factorials so parameter sums near -1 (unit-circle
    case) stay finite.
    """
    total = 0.0
    for k in range(n + 1):
        total += (
            pochhammer(alpha + k + 1.0, n - k)
            * pochhammer(alpha + beta + n + 1.0, k)
            / (math.factorial(k) * math.factorial(n - k))
            * ((x - 1.0) / 2.0) ** k
        )
    return total


def jacobi_two_row_recurrence(n: int, alpha: float, beta: float, x) -> np.ndarray:
    """Degree-n Jacobi values by the three-term recurrence keeping only two rows.

    The reference for the library's one-pass degree table: the same
    arithmetic per degree, so the two must agree bit for bit.
    """
    a, b = alpha, beta
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) * (2.0 * k + a + b - 2.0)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p


def weight_mass(alpha: float, beta: float) -> float:
    """Integral of (1-x)^alpha (1+x)^beta over [-1, 1]."""
    return math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )


def shifted_monomial_integral(p: int, alpha: float, beta: float) -> float:
    """Integral of ((1+x)/2)^p against the weight; cancellation-free."""
    return math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(beta + p + 1.0)
        + math.lgamma(alpha + 1.0)
        - math.lgamma(alpha + beta + p + 2.0)
    )


def jacobi_norm_bruteforce(j: int, alpha: float, beta: float, panels: int = 4000) -> float:
    """L2 norm squared of P_j by composite Simpson on a clipped interval.

    Crude but independent; good to ~1e-6 relative for the smooth weights
    used in tests (alpha, beta >= 0).
    """
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 2 * panels + 1)
    vals = np.array([jacobi_explicit_sum(j, alpha, beta, x) for x in xs])
    w = (1.0 - xs) ** alpha * (1.0 + xs) ** beta
    f = vals * vals * w
    h = xs[1] - xs[0]
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum())


def dim_eigenspace_mp(alpha: float, beta: float, n: int):
    """Eigenspace dimension at 60 significant digits (mpmath)."""
    from mpmath import mp, mpf

    if n == 0:
        return mpf(1)
    with mp.workdps(60):
        a, b = mpf(alpha), mpf(beta)
        return (
            (2 * n + a + b + 1)
            * mp.gamma(b + 1)
            * mp.gamma(n + a + b + 1)
            * mp.gamma(n + a + 1)
            / (
                mp.gamma(a + 1)
                * mp.gamma(a + b + 2)
                * mp.gamma(n + 1)
                * mp.gamma(n + b + 1)
            )
        )


def ma1_lag_cov_mc(
    phi: np.ndarray, sigma: np.ndarray, lag: int, replicates: int = 200_000, seed: int = 0
):
    """cov(Z(t+lag), Z(t)) of Z(t) = e(t) + phi e(t-1) by direct simulation.

    Returns (estimate, standard_error) as m x m arrays; the innovation
    covariance is sampled through a Cholesky factor of sigma.
    """
    rng = np.random.default_rng(seed)
    m = phi.shape[0]
    chol = np.linalg.cholesky(sigma + 1e-14 * np.eye(m))
    lo = min(0, lag) - 1
    hi = max(0, lag)
    steps = hi - lo + 1
    eps = rng.standard_normal((replicates, steps, m)) @ chol.T
    idx = {t: i for i, t in enumerate(range(lo, hi + 1))}
    z_lead = eps[:, idx[lag]] + eps[:, idx[lag - 1]] @ phi.T
    z_base = eps[:, idx[0]] + eps[:, idx[-1]] @ phi.T
    prods = z_lead[:, :, None] * z_base[:, None, :]
    est = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(replicates)
    return est, se


def exponential_path_cholesky(theta: float, root, an: float, times, rng) -> np.ndarray:
    """Degree path of the exponential kernel drawn through the Cholesky factor
    of exp(-theta |t_i - t_j|), from the same normals as the kernel's sampler."""
    tgrid = np.asarray(times, dtype=float)
    corr = np.exp(-theta * np.abs(tgrid[:, None] - tgrid[None, :]))
    chol = np.linalg.cholesky(corr)
    return an * (chol @ rng.standard_normal((len(tgrid), root.shape[0]))) @ root.T


def ma1_path_per_time(phi, root, an: float, times, rng) -> np.ndarray:
    """VectorMA1 path with one standard_normal(m) call per needed integer time, ascending:
    innovations root @ z, then an * (e(t) + phi @ e(t - 1)) at each time."""
    needed = sorted({int(t) for t in times} | {int(t) - 1 for t in times})
    eps = {s: root @ rng.standard_normal(root.shape[0]) for s in needed}
    return np.array([an * (eps[int(t)] + phi @ eps[int(t) - 1]) for t in times])


def simulate_reference(model, points, times, trunc: int, seed: int):
    """(values, latent_v, latent_u) of simulate_spatiotemporal, built the long way: U from
    substream(seed, 0); per degree n a fresh substream(seed, 1, n), a_constant(space, n) and
    a per-time path (one draw per needed time for the moving average, the AR(1) and
    exponential recurrence one gap at a time); then jacobi_all and one += per degree onto
    zeros, in degree order.
    `points` is the (K, *ambient_shape) array and `times` the checked float grid."""
    from isofield import jacobi_all, sample_uniform_batch, substream
    from isofield.spaces import a_constant, cos_distance_batch
    from isofield.spectral import factor_coefficients

    space, kernel, m = model.space, model.kernel, model.m
    roots = factor_coefficients(model)[1]
    u = sample_uniform_batch(space, 1, substream(seed, 0))[0]
    latent_v = np.zeros((trunc + 1, len(times), m))
    for n in range(trunc + 1):
        rng, an, root = substream(seed, 1, n), a_constant(space, n), roots[n]
        if kernel.kind == "ma1":
            latent_v[n] = ma1_path_per_time(kernel.phi, root, an, times, rng)
        elif kernel.kind in ("ar1", "exponential"):
            xi = np.empty((len(times), m))
            xi[0] = rng.standard_normal(m)
            for i in range(1, len(times)):
                gap = abs(times[i] - times[i - 1])
                rho = (math.pow(kernel.param, gap) if kernel.kind == "ar1"
                       else math.exp(-kernel.param * gap))
                xi[i] = rho * xi[i - 1] + np.sqrt(1.0 - rho * rho) * rng.standard_normal(m)
            latent_v[n] = an * xi @ root.T
        else:  # constant in time: one draw, repeated
            latent_v[n] = root @ (an * rng.standard_normal(m))
    pn = jacobi_all(trunc, space.geom, cos_distance_batch(space, u, points))
    values = np.zeros((len(points), len(times), m))
    for n in range(trunc + 1):
        values += pn[n][:, None, None] * latent_v[n]
    return values, latent_v, u


def random_psd(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T) / m


def empirical_cov_per_replicate(realizations, a: int, b: int, pairs) -> np.ndarray:
    """(R, m, m) per-replicate averages of outer(Z(x_a; t_i), Z(x_b; t_j)) over
    the time-index pairs, one replicate and one np.outer at a time."""
    return np.stack(
        [
            np.mean([np.outer(r.values[a, i], r.values[b, j]) for i, j in pairs], axis=0)
            for r in realizations
        ]
    )


def write_values_csv(path, values, times) -> None:
    """The values CSV of a (points, times, components) array, one csv.writer
    row per value: point_index, repr(time), component, repr(value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", "time", "component", "value"])
        for p in range(values.shape[0]):
            for i, t in enumerate(times):
                for k in range(values.shape[2]):
                    writer.writerow([p, repr(float(t)), k, repr(float(values[p, i, k]))])


def eval_cov_output(rhos, lags, covs, tail_bound, fmt: str) -> str:
    """The eval-cov table as one dict row per matrix entry, distance by distance,
    then lag by lag: csv.writer rows under the header, or the indented JSON list.
    covs[k] is the (len(rhos), m, m) covariance at lags[k]."""
    header = ["rho", "lag", "component_i", "component_j", "value", "tail_bound"]
    rows = [dict(rho=float(rho), lag=float(lag), component_i=i, component_j=j,
                 value=float(cov[r][i, j]), tail_bound=tail_bound)
            for r, rho in enumerate(rhos) for lag, cov in zip(lags, covs)
            for i in range(cov.shape[-2]) for j in range(cov.shape[-1])]
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return csv_table(header, rows)


def csv_table(header, rows) -> str:
    """A CSV table of dict rows as csv.writer renders it: the header, then one
    writerow per row of the values under the header's keys."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[h] for h in header])
    return out.getvalue()


def jacobi_series_per_degree(N: int, params, x, coeffs) -> np.ndarray:
    """sum_n coeffs[n] P_n(x) over n = 0..N as one += per degree onto zeros, in degree order:
    the reference for the library's blocked series sum, signed zeros included."""
    from isofield import jacobi_all

    x, coeffs = np.asarray(x, dtype=float), np.asarray(coeffs, dtype=float)
    pn = jacobi_all(N, params, x).reshape((N + 1,) + x.shape + (1,) * (coeffs.ndim - 1))
    out = np.zeros(x.shape + coeffs.shape[1:])
    for n in range(N + 1):
        out += pn[n] * coeffs[n]
    return out


def eval_cov_per_degree(model, rho, t: float = 0.0, trunc=None) -> np.ndarray:
    """The covariance partial sum as one += per degree onto zeros, in degree order.

    The reference for the library's one-pass contraction, which must agree bit
    for bit, signed zeros included. It shares the Jacobi table and the B_n(t)
    reading with the library; only the summation is its own.
    """
    from isofield.jacobi import jacobi_all

    n_max = model.max_degree if trunc is None else trunc
    rho = np.asarray(rho, dtype=float)
    x = np.array([math.cos(r) for r in rho.ravel().tolist()]).reshape(rho.shape)
    pn = jacobi_all(n_max, model.space.geom, x)[..., None, None]
    bs = model.coeff_at(slice(n_max + 1), t)
    out = np.zeros(rho.shape + (model.m, model.m))
    for n in range(n_max + 1):
        out += bs[n] * pn[n]
    return out


def validate_spatiotemporal_per_degree(model, probe_lags):
    """The space-time validity report read one kernel call per (degree, lag).

    The reference for the library's one-table-per-lag reading, which must give
    the same report and the same UsageError. It shares the report types, the
    tolerances, the lag gate and the lag-0 report with the library; only the
    reading of B_n(t) is its own.
    """
    from isofield.errors import UsageError
    from isofield.spectral import (
        PSD_TOL, SYMMETRY_TOL, ValidityReport, Violation, _require_lag, _symmetric_part,
        validate_spatial,
    )

    lags = [float(t) for t in probe_lags]
    if not lags:
        raise UsageError("probe_lags must be nonempty")
    if not any(t == 0.0 for t in lags):
        raise UsageError("probe_lags must contain 0")
    grid = sorted(set(lags))
    for t in grid:
        _require_lag(model.domain, t)
    report = validate_spatial(model)
    if not report.valid:
        return report
    violations = []
    coeff_at = model.kernel.coeff_at
    for n in range(model.max_degree + 1):
        for t in grid:
            bt = coeff_at(n, t, model.coeffs)
            bmt = coeff_at(n, -t, model.coeffs)
            if not (np.all(np.isfinite(bt)) and np.all(np.isfinite(bmt))):
                violations.append(Violation(n, t, "divergent", float("inf")))
                continue
            scale = max(1.0, float(np.max(np.abs(bt))))
            mismatch = float(np.max(np.abs(bmt - bt.T)))
            if mismatch > SYMMETRY_TOL * scale:
                violations.append(Violation(n, t, "asymmetric", mismatch))
        blocks = np.array([[coeff_at(n, ti - tj, model.coeffs) for tj in grid] for ti in grid])
        gram = blocks.transpose(0, 2, 1, 3).reshape(len(grid) * model.m, -1)
        if np.all(np.isfinite(gram)):
            w = np.linalg.eigvalsh(_symmetric_part(gram))
            if w[0] < -PSD_TOL * max(len(grid), w[-1]):
                violations.append(Violation(n, "spatial", "indefinite", float(w[0])))
    return ValidityReport(valid=not violations, violations=violations)


def psd_root_per_degree(b) -> np.ndarray:
    """B^(1/2) of one coefficient matrix by its own eigh, with the root formula of the
    library's stacked factorisation: the per-degree reference for its roots."""
    from isofield.spectral import _psd_root, _symmetric_part

    return _psd_root(*np.linalg.eigh(_symmetric_part(np.asarray(b, dtype=float))))


def zonal(space, n: int, x, y) -> float:
    """Normalized zonal function R_n(cos rho(x, y)) with the space's geometric pair."""
    from isofield import jacobi_normalized
    from isofield.spaces import cos_distance_batch

    return float(jacobi_normalized(n, space.geom, cos_distance_batch(space, y, x[None])[0]))


_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def qmul(q1, q2):
    """Hamilton product of (..., 4) quaternion arrays (w, x, y, z), broadcasting over
    leading axes."""
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


def qrandn_unit(rng, shape=()) -> np.ndarray:
    """Unit quaternions uniform on S^3, drawn from the given generator."""
    g = rng.standard_normal(tuple(shape) + (4,))
    return g / np.sqrt(np.sum(g * g, axis=-1, keepdims=True))


def regauge(space, x, rng):
    """The same point with a random equivalent representative: a sign on projR, a unit
    complex scalar on projC, a right unit-quaternion factor on projH; spheres unchanged."""
    from isofield import SpaceFamily

    family = space.family
    if family is SpaceFamily.REAL_PROJECTIVE:
        return (1.0 if rng.random() < 0.5 else -1.0) * x
    if family is SpaceFamily.COMPLEX_PROJECTIVE:
        return x * np.exp(2j * math.pi * rng.random())
    if family is SpaceFamily.QUATERNION_PROJECTIVE:
        return qmul(x, qrandn_unit(rng))
    return x


def load_realization_values(csv_path) -> np.ndarray:
    """Read a values CSV back into its (points, times, components) array."""
    table = np.genfromtxt(csv_path, delimiter=",", names=True, ndmin=1)
    assert table.size, f"no data rows in {csv_path}"
    p = table["point_index"].astype(int)
    c = table["component"].astype(int)
    times, t = np.unique(table["time"], return_inverse=True)
    out = np.full((p.max() + 1, len(times), c.max() + 1), np.nan)
    out[p, t, c] = table["value"]
    return out
