"""Series simulation of isotropic vector random fields, optionally in time.

A realization is built from a single uniform latent point U and, per
degree n, an m-vector coefficient process V_n(t) with
cov(V_n(t1), V_n(t2)) = a_n^2 B_n(t1 - t2); the field is
Z(x; t) = sum_n V_n(t) P_n(cos rho(x, U)) truncated at the requested
degree. Ensembles over independent seeds reproduce the model covariance;
a single realization is not ergodic in U and its spatial averages do not
converge to the ensemble covariance.

Randomness is split into named substreams of the master seed, so results do not depend
on evaluation order and replicates can run in parallel with per-replicate derived seeds.
substream(seed, *key) is numpy's SeedSequence(seed, spawn_key=key) stream, built from the
entropy numpy assembles for it (a test pins this). Every stream drawn from a seed:

- spawn key (0,): the latent point U
- spawn key (1, n): the degree-n coefficient path V_n
- spawn key (2,): the points of a `random:K` point set (cli.resolve_points)
- spawn key (3,): the two points per space of the `check` command
- no spawn key: the mc_* and mc_recover_vn estimators of isofield.verify
- the seed sequence's generate_state(count): verify.replicate_seeds
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, modelio
from .errors import ModelError, NumericError, UsageError
from .jacobi import jacobi_all
from .spaces import (
    Point,
    SpaceParams,
    a_constant,
    cos_distance_batch,
    point_array,
    points_sha256,
    points_to_reals,
    sample_uniform,
)
from .spectral import ZERO_LAG, SeriesModel, _require_lag, _resolve_trunc, factor_coefficients
from .spectral import truncation_bound


def _natural(value, name: str) -> int:
    """value as an int: UsageError naming it unless it is a non-negative integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise UsageError(f"{name} {value} must be a non-negative integer")
    return int(value)


def _words(n: int, count: int = 1) -> bytes:
    """n as little-endian 32-bit words, at least count of them."""
    return n.to_bytes(4 * max(n.bit_length() + 31 >> 5, count), "little")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named child generator of a master seed: the SeedSequence(seed, spawn_key=key) stream, from
    the entropy numpy assembles: seed words, zero-padded to 4 words if keyed, then key words."""
    data = _words(_natural(seed, "seed"), 4 if key else 1)
    data += b"".join([_words(_natural(k, "spawn key")) for k in key])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.frombuffer(data, "<u4"))))


@dataclass
class Realization:
    """Simulated field values plus the latent draws that produced them.

    points is the (K, *ambient_shape) array of unit representatives and
    values has shape (K, len(times), m). latent_v[n, i, :] is
    the degree-n series coefficient at times[i] (the V_n(t) of the series,
    including the a_n and coefficient-matrix factors), so the field at any
    point x is sum_n latent_v[n, i] * P_n(cos rho(x, latent_u)).
    """

    space: SpaceParams
    model: object
    points: np.ndarray = field(repr=False)
    times: list[float]
    values: np.ndarray = field(repr=False)
    latent_u: Point = field(repr=False)
    latent_v: np.ndarray = field(repr=False)
    trunc: int
    seed: int

    @cached_property
    def model_hash(self) -> str:
        """modelio.model_hash of the model, computed on first use: a kernel
        without a file representation still simulates, but cannot be saved."""
        return modelio.model_hash(self.model)


def simulate_spatial(
    model: SeriesModel, points, trunc: int | None = None, seed: int = 0
) -> Realization:
    """One realization of the purely spatial series at the given points:
    simulate_spatiotemporal on the time grid [0.0].

    Draws U uniform, then per degree an m-vector V_n with covariance
    a_n^2 B_n(0), and emits sum_n V_n P_n(cos rho(x, U)).
    """
    return simulate_spatiotemporal(model, points, [0.0], trunc, seed)


def simulate_spatiotemporal(
    model: SeriesModel, points, times, trunc: int | None = None, seed: int = 0
) -> Realization:
    """One realization of the space-time series on a points x times grid.

    Per degree, the model's kernel draws an independent stationary path
    V_n(.) with cov(V_n(t1), V_n(t2)) = a_n^2 B_n(t1 - t2) from the degree's
    substream (see the kernels' sample_path); validate_spatial's checks gate
    the model; non-finite values raise NumericError. Times must be finite,
    strictly increasing and in the model's lag domain, so a purely spatial
    model accepts the time grid [0.0] only. `points` is a (K, *ambient_shape) array of unit
    representatives or a sequence of Points of the space.
    """
    times = [_require_lag(model.domain, t) for t in times]
    if not times:
        raise UsageError("at least one time is required")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise UsageError("times must be strictly increasing")
    if model.domain == ZERO_LAG:
        times = [0.0]  # also for -0.0, so the output reads 0.0
    report, roots = factor_coefficients(model)
    if not report.valid:
        raise ModelError(f"cannot simulate from an invalid model: {report.summary()}")
    trunc = _resolve_trunc(model, trunc)
    space = model.space
    points = point_array(space, points)
    u = sample_uniform(space, substream(seed, 0))
    sample_path = getattr(model.kernel, "sample_path", None)
    if sample_path is None:
        raise UsageError(f"unsupported temporal kernel {type(model.kernel).__name__}")
    latent_v = np.zeros((trunc + 1, len(times), model.m))
    for n in range(trunc + 1):
        latent_v[n] = sample_path(roots[n], a_constant(space, n), times, substream(seed, 1, n))
    pn = jacobi_all(trunc, space.geom, cos_distance_batch(space, u, points))
    values = np.einsum("np,ntm->ptm", pn, latent_v)
    if not np.isfinite(values).all():
        raise NumericError("the series produced non-finite field values")
    return Realization(
        space=space,
        model=model,
        points=points,
        times=times,
        values=values,
        latent_u=u,
        latent_v=latent_v,
        trunc=trunc,
        seed=int(seed),
    )


# --------------------------------------------------------------------------
# Realization I/O: columnar CSV plus a JSON metadata sidecar
# --------------------------------------------------------------------------


def save_realization(real: Realization, csv_path, *, points_spec=None) -> tuple[Path, Path]:
    """Write values as (point_index, time, component, value) rows to csv_path, and the
    sidecar beside it as <stem>.meta.json.

    The sidecar records `points_spec`, or the coordinates as `points` when no
    spec is given. Output is a pure function of its arguments, so identical
    configurations produce byte-identical files. A model with no file form
    raises ModelFormatError before anything is written.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
    npts, _, m = real.values.shape
    meta = {
        "format_version": 2,
        "isofield_version": __version__,
        "space": real.space.label,
        "m": m,
        "seed": int(real.seed),
        "trunc": int(real.trunc),
        "model_hash": real.model_hash,
        "tail_bound": truncation_bound(real.model, real.trunc),
        "times": [float(t) for t in real.times],
        "latent_u": points_to_reals(real.latent_u.coords[None])[0].tolist(),
        "point_count": npts,
        "points_sha256": points_sha256(real.points),
    }
    if points_spec is None:
        meta["points"] = points_to_reals(real.points).tolist()
    else:
        meta["points_spec"] = points_spec
    sidecar = json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n"
    # One %-format over every value, in C order: %r of a float is its repr.
    tails = [f",{t!r},{k},%r\r\n" for t in real.times for k in range(m)]
    rows = "".join([f"{p}{tail}" for p in range(npts) for tail in tails])
    with open(csv_path, "w", newline="") as fh:  # csv.writer's dialect: CRLF, nothing quoted
        fh.write("point_index,time,component,value\r\n")
        fh.write(rows % tuple(real.values.ravel().tolist()))
    meta_path.write_text(sidecar)
    return csv_path, meta_path
