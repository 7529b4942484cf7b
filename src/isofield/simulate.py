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
substream(seed, *key) draws the stream of numpy's SeedSequence(seed, spawn_key=key): its
seed sequence is built from the entropy numpy assembles for that one, so pools, states,
draws and spawned streams are equal (tests pin this), though its entropy and spawn_key
fields are not numpy's (see substream); simulate_* builds the same streams from one checked
seed prefix. isofield._streams seeds a call's streams in one batch: each keeps
numpy's SeedSequence of its entropy words, and the four uint64 words PCG64 asks of it,
generate_state(4, np.uint64), are hashed for every stream of the call in one vectorised
pass, by the fixed hash numpy's stream-compatibility policy keeps stable. Only that request
is answered in advance, so states, draws and spawned children equal numpy's. Every stream
drawn from a seed:

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
from .errors import ZERO_LAG, ModelError, NumericError, UsageError, _count, _lag_list
from .jacobi import _jacobi_series
from .spaces import (SpaceParams, _cos, _point_family, _points, _sample, points_sha256,
                     points_to_reals)
from .spectral import SeriesModel, _resolve_trunc, truncation_bound

_WRITE_CHUNK = 1 << 14  # values per write of _write_rows (whole leads, at least one)


def _words(n: int, count: int = 1) -> bytes:
    """n as little-endian 32-bit words, at least count of them."""
    return n.to_bytes(4 * max(n.bit_length() + 31 >> 5, count), "little")


def _generators(datas) -> list:
    """_streams._generators, which replaces this name on first use: numpy.random loads then."""
    global _generators
    from ._streams import _generators

    return _generators(datas)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named child generator of a master seed: the stream of numpy's SeedSequence(seed,
    spawn_key=key). Its seed sequence is built from the entropy numpy assembles for that one
    (seed words, zero-padded to 4 words if keyed, then key words), so its pool, the generator
    state, the draws, every generate_state request, and the streams of spawned children and
    of pickled copies equal numpy's. Its fields do not: entropy holds the assembled words and
    spawn_key is () (entropy [5 0 0 0 1 2] and spawn_key () for substream(5, 1, 2), where
    numpy's has 5 and (1, 2)), and its repr names the private subclass _Seeded; a spawned
    child's fields differ the same way. It is the one-stream batch of the builder of every
    stream simulate_* draws. seed and keys by the count rule, with no upper bound."""
    data = _words(_count(seed, "seed", high=None), 4 if key else 1)
    keys = b"".join([_words(_count(k, "spawn key", high=None)) for k in key])
    return _generators([data + keys])[0]


@dataclass(eq=False)
class Realization:
    """Simulated field values plus the latent draws that produced them.

    points is the (K, *ambient_shape) array of unit representatives,
    latent_u the (*ambient_shape,) representative of the latent point U, and
    values has shape (K, len(times), m). latent_v[n, i, :] is
    the degree-n series coefficient at times[i] (the V_n(t) of the series,
    including the a_n and coefficient-matrix factors), so the field at any
    point x is sum_n latent_v[n, i] * P_n(cos rho(x, latent_u)). == and hash are by identity.
    """

    space: SpaceParams
    model: object
    points: np.ndarray = field(repr=False)
    times: list[float]
    values: np.ndarray = field(repr=False)
    latent_u: np.ndarray = field(repr=False)
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
    return _simulate(model, points, [0.0], trunc, seed)  # [0.0] passes every domain's rule


def simulate_spatiotemporal(
    model: SeriesModel, points, times, trunc: int | None = None, seed: int = 0
) -> Realization:
    """One realization of the space-time series on a points x times grid.

    The model's kernel draws every degree's independent stationary path
    V_n(.) with cov(V_n(t1), V_n(t2)) = a_n^2 B_n(t1 - t2) in one call,
    kernel.sample_paths(roots, an, times, rngs): roots is the read-only
    (trunc + 1, m, m) stack of coefficient roots, an the read-only a_n array,
    and rngs[n] the degree-n substream, keyed (1, n). It returns the
    (trunc + 1, len(times), m) latent table; another shape raises UsageError.
    validate_spatial's checks gate the model; non-finite values raise
    NumericError. times, by the lag-list rule of the model's domain, must increase
    strictly, so a purely spatial model accepts the time grid [0.0] only; trunc by the
    whole-number rule, seed by the count rule with no upper bound.
    `points` is a (K, *ambient_shape) array of unit representatives, or a
    sequence of such rows or of make_point results of the space. The series is summed by
    jacobi._jacobi_series, one block of points at a time and degree by degree, so a run
    holds its values and latent table plus one block's Jacobi table, whatever K and trunc,
    and a value's bits do not depend on which other points are simulated with it.
    """
    domain = model.domain
    times = _lag_list(times, "times", domain)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise UsageError("times must be strictly increasing")
    if domain == ZERO_LAG:
        times = [0.0]  # also for -0.0, so the output reads 0.0
    return _simulate(model, points, times, trunc, seed)


def _simulate(model: SeriesModel, points, times: list[float], trunc, seed) -> Realization:
    """simulate_spatiotemporal past its time-grid rule: the model, trunc, points and seed are
    checked here, once for either entry point."""
    report, roots = model._lag0
    if not report.valid:
        raise ModelError(f"cannot simulate from an invalid model: {report.summary()}")
    trunc = _resolve_trunc(model, trunc)
    space = model.space
    row = _point_family(space)  # the family row, looked up once for the point set, U and rho
    points = _points(space, row, points)
    # the seed checked once: substream(seed, *key) is the stream of prefix + key words
    prefix = _words(_count(seed, "seed", high=None), 4)
    sample_paths = getattr(model.kernel, "sample_paths", None)
    if sample_paths is None:
        raise UsageError(f"unsupported temporal kernel {type(model.kernel).__name__}")
    head = prefix + _words(1)  # U's stream is keyed (0,), degree n's (1, n): one batch
    rng_u, *rngs = _generators([prefix + _words(0)] + [head + _words(n) for n in range(trunc + 1)])
    u = _sample(row, space.d, 1, rng_u)[0]
    latent_v = sample_paths(roots[:trunc + 1], model._an[:trunc + 1], times, rngs)
    shape = (trunc + 1, len(times), model.m)
    if np.shape(latent_v) != shape:
        raise UsageError(f"{type(model.kernel).__name__}.sample_paths returned shape "
                         f"{np.shape(latent_v)}, expected {shape}")
    values = _jacobi_series(trunc, space.geom, _cos(row, u, points), latent_v, model._steps)
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
        "latent_u": points_to_reals(real.latent_u[None])[0].tolist(),
        "point_count": npts,
        "points_sha256": points_sha256(real.points),
    }
    if points_spec is None:
        meta["points"] = points_to_reals(real.points).tolist()
    else:
        meta["points_spec"] = points_spec
    sidecar = json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n"
    with open(csv_path, "w", newline="") as fh:
        _write_rows(fh, ["point_index", "time", "component", "value"], range(npts),
                    [f",{t!r},{k},%r\r\n" for t in real.times for k in range(m)], real.values)
    meta_path.write_text(sidecar)
    return csv_path, meta_path


def _write_rows(fh, header, leads, tails, values) -> None:
    """The CSV header, then per lead a row str(lead) + tail per tail, in csv.writer's dialect."""
    fh.write(",".join(header) + "\r\n")
    step = max(1, _WRITE_CHUNK // len(tails))  # leads per write; values[k] fills lead k's %r
    for k in range(0, len(leads), step):
        rows = "".join([lead + tail for lead in map(str, leads[k:k + step]) for tail in tails])
        fh.write(rows % tuple(values[k:k + step].ravel().tolist()))
