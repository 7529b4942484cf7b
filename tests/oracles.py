"""Independent reference implementations the tests check the library against.

Nothing in here calls back into the code paths under test: polynomial
values come from the explicit finite sum, integrals from beta-function
moments, eigenspace dimensions from high-precision gamma evaluation,
moving-average covariances from direct simulation of the process,
exponential-kernel paths from a Cholesky factor of the time-grid correlation,
moving-average paths from one normal draw per time,
values CSVs and eval-cov tables from csv.writer one row at a time, and
space-time validity reports from one kernel call per (degree, lag).
Some are the library's own pieces composed the long way: coefficient roots
one degree at a time, zonal values one point pair at a time.
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
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[h] for h in header])
    return out.getvalue()


def validate_spatiotemporal_per_degree(model, probe_lags):
    """The space-time validity report read one kernel call per (degree, lag).

    The reference for the library's one-table-per-lag reading, which must give
    the same report and the same UsageError. It shares the report types, the
    tolerances and the lag-0 convergence check with the library; only the
    reading of B_n(t) is its own.
    """
    from isofield.errors import UsageError
    from isofield.spectral import (
        BLOCK_PSD_TOL, SYMMETRY_TOL, ValidityReport, Violation, _check_convergence,
        _symmetric_part,
    )

    lags = [float(t) for t in probe_lags]
    if not lags:
        raise UsageError("probe_lags must be nonempty")
    if not any(t == 0.0 for t in lags):
        raise UsageError("probe_lags must contain 0")
    grid = sorted(set(lags))
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
            if w[0] < -BLOCK_PSD_TOL * max(1.0, w[-1]):
                violations.append(Violation(n, "spatial", "indefinite", float(w[0])))
    _check_convergence(model, violations)
    return ValidityReport(valid=not violations, violations=violations)


def psd_root_per_degree(b) -> np.ndarray:
    """B^(1/2) of one coefficient matrix by its own eigh, with the root formula of the
    library's stacked factorisation: the per-degree reference for its roots."""
    from isofield.spectral import _psd_root, _symmetric_part

    return _psd_root(*np.linalg.eigh(_symmetric_part(np.asarray(b, dtype=float))))


def zonal(space, n: int, x, y) -> float:
    """Normalized zonal function R_n(cos rho(x, y)) with the space's geometric pair."""
    from isofield import jacobi_normalized
    from isofield.spaces import cos_distance

    return float(jacobi_normalized(n, space.geom, cos_distance(space, x, y)))


def qrandn_unit(rng, shape=()) -> np.ndarray:
    """Unit quaternions uniform on S^3, drawn from the given generator."""
    g = rng.standard_normal(tuple(shape) + (4,))
    return g / np.sqrt(np.sum(g * g, axis=-1, keepdims=True))


def regauge(space, x, rng):
    """The same point with a random equivalent representative: a sign on projR, a unit
    complex scalar on projC, a right unit-quaternion factor on projH; spheres unchanged."""
    from isofield import Point, SpaceFamily
    from isofield.quaternions import qmul

    family = space.family
    if family is SpaceFamily.REAL_PROJECTIVE:
        coords = (1.0 if rng.random() < 0.5 else -1.0) * x.coords
    elif family is SpaceFamily.COMPLEX_PROJECTIVE:
        coords = x.coords * np.exp(2j * math.pi * rng.random())
    elif family is SpaceFamily.QUATERNION_PROJECTIVE:
        coords = qmul(x.coords, qrandn_unit(rng))
    else:
        coords = x.coords
    return Point(x.family, x.d, coords)


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
