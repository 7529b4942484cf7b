"""Command-line front end: validate, eval-cov, simulate, check, spectrum.

Exit codes: 0 success, 1 invalid model or failed check, 2 parse/usage
error (including non-finite lags or times, duplicate times, distance
grids outside [0, pi], and numerical failures), 3 unsupported geometry.
The default seed is the fixed constant DEFAULT_SEED (never time-derived),
so default runs are reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import GeometryError, ModelError, NumericError, UsageError, _count
from .modelio import _not_utf8, load_model
from .simulate import _replacing, _sidecar_path, _simulate_to, _write_table, substream
from .spaces import (
    SpaceFamily,
    all_reference_spaces,
    ambient_shape,
    normalize_points,
    parse_space,
    points_from_reals,
    sample_uniform_batch,
)
from .spectral import _resolve_trunc, angular_power_spectrum, eval_cov, truncation_bound
from .verify import check_space_identities, mc_funk_hecke, mc_zonal_covariance

DEFAULT_SEED = 0xC0FFEE

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
MAX_COUNT = 1_000_000  # grid distances, generated points or replicates; more outgrows memory
MAX_VALUES = 10_000_000  # values one eval-cov or simulate run writes: eval-cov holds them (80 MB
# of float64), simulate forms and writes them a block of points at a time


def _parse_lags(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad lag list {text!r}; expected comma-separated numbers") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"bad lag list {text!r}; values must be finite")
    return values


def _parse_count(what: str, spec: str, text: str) -> int:
    """The count field of a grid or point-set spec, an integer in 1..MAX_COUNT."""
    try:
        count = int(text)
    except ValueError:
        raise UsageError(f"{what} {spec!r} needs an integer count, got {text!r}") from None
    if not 1 <= count <= MAX_COUNT:
        raise UsageError(f"{what} {spec!r} needs a count in 1..{MAX_COUNT} (the cap)")
    return count


def _require_values(flags: str, *sizes: int) -> None:
    """UsageError naming the flags when the output they ask for, the product of sizes,
    exceeds MAX_VALUES values."""
    if math.prod(sizes) > MAX_VALUES:
        raise UsageError(f"{flags} ask for {' x '.join(map(str, sizes))} = {math.prod(sizes)} "
                         f"values, over the cap of {MAX_VALUES}")


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b = float(a), float(b)
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}; expected 'start:stop:count'") from exc
    n = _parse_count("grid", text, n)
    if not (0.0 <= a <= math.pi and 0.0 <= b <= math.pi):
        raise UsageError(f"bad grid {text!r}; distances must lie in [0, pi]")
    return np.linspace(a, b, n)


def _fibonacci_sphere(count: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Deterministic quasi-uniform golden-angle grid on the 2-sphere: its points start..stop
    (all of them by default), each computed from its own index alone."""
    i = np.arange(start, count if stop is None else stop, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _file(what: str, spec: str) -> Path:
    """spec as the path of an existing file; UsageError naming what and spec otherwise."""
    path = Path(spec)
    if not path.is_file():
        state = "is not a file" if path.exists() else "does not exist"
        raise UsageError(f"{what} {spec!r} {state}")
    return path


def _out_file(text: str, writes: str) -> None:
    """UsageError naming --out text when it names a directory or no file name, or a file in a
    folder that is missing or no folder, there or where its symlinks lead."""
    out = Path(text)
    if not out.name or text.endswith(("/", os.sep)) or out.is_dir():
        raise UsageError(f"--out {text!r} names a directory or no file name, but {writes}")
    if not out.parent.is_dir():
        state = "is not a folder" if out.parent.exists() else "does not exist"
        raise UsageError(f"--out {text!r} is in {str(out.parent)!r}, which {state}, but {writes}")
    link = _dangling(out)
    if link:
        raise UsageError(f"--out {text!r} {link}, but {writes}")


def _dangling(path: Path) -> str | None:
    """How path, in a folder, is a symlink loop or a symlink that leads into a missing folder
    or into no folder, where no file can be written; None where a file can be."""
    try:
        os.stat(path)
    except OSError as exc:
        if exc.errno == errno.ELOOP:
            return "is a symlink loop"
    folder = Path(os.path.realpath(path)).parent
    if folder.is_dir():
        return None
    state = "something that is not a folder" if folder.exists() else "a folder that does not exist"
    return f"is a symlink to {os.readlink(path)!r}, which leads into {state}"


def _load_model(spec: str):
    """load_model(spec); a --model path that is no file is named with its flag."""
    try:
        return load_model(spec)
    except OSError:
        _file("--model file", spec)
        raise


def _is_generated(spec: str) -> bool:
    """A 'kind:K' point-set spec rather than the path of an existing point file."""
    return ":" in spec and not Path(spec).exists()


def resolve_points(space, spec: str, seed: int) -> np.ndarray:
    """Point-set specifier: 'random:K', 'fibonacci:K', or a coordinate CSV.

    Returns the (K, *ambient_shape) array of unit representatives.
    """
    count, blocks, _ = _point_source(space, spec, seed)
    return next(blocks(count))


def _point_source(space, spec: str, seed: int):
    """The points of spec as (K, blocks, record): blocks(size) yields them in arrays of size
    points (the last one shorter), which together are resolve_points(space, spec, seed);
    record is the sidecar's record of spec, a generated spec as typed, or a point
    file's name and the SHA-256 of the bytes that were parsed. Every error of the spec is
    raised here, before any block."""
    if _is_generated(spec):
        kind, _, arg = spec.partition(":")
        if kind not in ("random", "fibonacci"):
            raise UsageError(f"unknown point specifier {spec!r}")
        count = _parse_count("point set", spec, arg)
        if kind == "random":  # a batch of k draws what k batches of one draw
            _count(seed, "seed", high=None)  # substream's seed rule, checked before any block
            ambient_shape(space)  # GeometryError for a family without points

            def draws(size):  # a stream of its own per call, so every call yields the same
                rng = substream(seed, 2)
                for k in range(0, count, size):
                    yield sample_uniform_batch(space, min(size, count - k), rng)

            return count, draws, spec
        if space.family is not SpaceFamily.SPHERE or space.d != 2:
            raise UsageError("fibonacci point sets are defined on sphere:2 only")
        return count, lambda size: (
            normalize_points(space, _fibonacci_sphere(count, k, min(k + size, count)))
            for k in range(0, count, size)), spec
    path = _file("point file", spec)
    data = path.read_bytes()
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"point file {spec!r}: {_not_utf8(exc)}") from None
    rows = []
    for k, line in enumerate(content.splitlines(), 1):
        text = line.partition("#")[0]
        if not text.strip():
            continue
        try:
            rows.append([float(v) for v in text.split(",")])
        except ValueError:
            raise UsageError(f"point file {spec!r}: line {k} holds a non-number") from None
        if len(rows[-1]) != len(rows[0]):
            raise UsageError(f"point file {spec!r}: line {k} has {len(rows[-1])} values "
                             f"where the lines before it have {len(rows[0])}")
        if not any(rows[-1]) or not all(map(math.isfinite, rows[-1])):
            raise UsageError(f"point file {spec!r}: line {k} holds a zero or non-finite point")
    if not rows:
        raise UsageError(f"no points found in {spec!r}")
    record = {"file": path.name, "sha256": hashlib.sha256(data).hexdigest()}
    points = normalize_points(space, points_from_reals(space, np.array(rows)))
    return len(points), lambda size: (points[k:k + size]
                                      for k in range(0, len(points), size)), record


@contextlib.contextmanager
def _out_errors(text: str):
    """An OSError in the block, which writes the --out file text and perhaps simulate's sidecar
    beside it, as a UsageError naming --out, and the sidecar when that is the file that failed."""
    try:
        yield
    except OSError as exc:
        sidecar = exc.filename is not None and Path(exc.filename) != Path(text)
        where = f" its sidecar {exc.filename!r}:" if sidecar else ""
        raise UsageError(f"--out {text!r}:{where} {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _output(out_path: str | None):
    """The text stream to write to: stdout for None or '-', else the file (CRLF kept), which
    gets the whole output or keeps its old bytes."""
    if out_path not in (None, "-"):
        with _out_errors(out_path), _replacing(out_path) as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()  # a reader that has gone fails here, not at interpreter exit
    except BrokenPipeError:
        # stdout's later flushes, at interpreter exit too, go to devnull (the Python docs'
        # note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError("stdout was closed before the whole output was written") from None


def _emit(doc, out_path: str | None) -> None:
    """doc as indented JSON with sorted keys."""
    with _output(out_path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = model.validate(None if args.lags is None else _parse_lags(args.lags))
    if args.format == "json":
        _emit(report.as_dict(), args.out)
    else:
        with _output(args.out) as fh:
            _write_table(fh, "csv", ["degree", "lag", "kind", "magnitude"], [("%r",)],
                         [([f"{v.degree},{v.lag},{v.kind}" for v in report.violations],
                           np.array([v.magnitude for v in report.violations], dtype=float))])
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_eval_cov(args) -> int:
    model = _load_model(args.model)
    rhos = _parse_grid(args.rho_grid)
    lags = _parse_lags(args.lags)
    if not lags:
        raise UsageError(f"--lags needs at least one lag, got {args.lags!r}")
    _require_values("--rho-grid and --lags", len(rhos), len(lags), model.m**2)
    trunc = args.trunc if args.trunc is not None else model.max_degree
    bound = truncation_bound(model, trunc)
    covs = eval_cov(model, rhos, lags, trunc).swapaxes(0, 1)
    with _output(args.out) as fh:
        _write_table(fh, args.format, ["rho", "lag", "component_i", "component_j", "value",
                                       "tail_bound"], [(lag, i, j, "%r", bound) for lag in lags
                     for i in range(model.m) for j in range(model.m)], [(rhos, covs)])
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    times = sorted(_parse_lags(args.times))
    # the latent table, (trunc + 1) x times x m, is held whole while the values are formed
    _require_values("--times and --trunc", _resolve_trunc(model, args.trunc) + 1, len(times),
                    model.m)
    count, blocks, points_spec = _point_source(model.space, args.points, args.seed)
    _require_values("--points and --times", count, len(times), model.m)
    with _out_errors(args.out):
        csv_path, meta_path = _simulate_to(args.out, model, blocks, times, args.trunc,
                                           args.seed, points_spec)
    print(f"wrote {csv_path} and {meta_path}", file=sys.stderr)
    return EXIT_OK


FUNK_HECKE_IDENTITY = (
    "integral of P_i(cos rho(x1,.)) P_j(cos rho(x2,.)) "
    "= delta_ij omega/a_i^2 P_i(cos rho(x1,x2))"
)
ZONAL_IDENTITY = (
    "zonal field a_n P_n(cos rho(x,U)): mean 0, "
    "cov P_n(cos rho(x1,x2)), distinct degrees uncorrelated"
)


def _record(space, name: str, identity: str, target, estimate, passed: bool, *,
            tolerance=None, std_error=None, z=None) -> dict:
    """One `check` record: an identity check has a tolerance, a Monte-Carlo one a standard
    error and a z-score; the fields it lacks are None."""
    return {"space": space.label, "name": name, "identity": identity, "target": float(target),
            "estimate": float(estimate), "pass": passed, "tolerance": tolerance,
            "std_error": None if std_error is None else float(std_error), "z": z}


def cmd_check(args) -> int:
    rep = args.replicates
    if not 2 <= rep <= MAX_COUNT:
        raise UsageError(f"--replicates {rep} must lie in 2..{MAX_COUNT} (the cap)")
    if args.spaces is not None and not args.spaces.strip():
        raise UsageError(f"--spaces {args.spaces!r} names no space; leave the flag out for "
                         "the default list")
    mc_spaces = [parse_space(s) for s in args.spaces.split(",")] if args.spaces else [
        s for s in all_reference_spaces() if s.family is not SpaceFamily.OCTONION_PROJECTIVE
    ]
    records = [_record(space, chk.name, chk.identity, chk.target, chk.value, chk.passed,
                       tolerance=chk.tolerance)
               for space in all_reference_spaces() for chk in check_space_identities(space).checks]
    for space in mc_spaces:
        x1, x2 = sample_uniform_batch(space, 2, substream(args.seed, 3))
        for i, j in ((0, 0), (1, 1), (2, 1), (1, 3)):
            est = mc_funk_hecke(space, i, j, x1, x2, replicates=rep, seed=args.seed + i * 7 + j)
            records.append(_record(space, f"funk_hecke_{i}_{j}", FUNK_HECKE_IDENTITY, est.target,
                                   est.value, est.passed, std_error=est.std_error, z=est.z_score))
        for n in (1, 2):
            chk = mc_zonal_covariance(space, n, x1, x2, replicates=rep, seed=args.seed + 13 * n)
            for label, est in (("mean", chk.mean), ("cov", chk.covariance), ("cross", chk.cross)):
                records.append(_record(space, f"zonal_{label}_{n}", ZONAL_IDENTITY, est.target,
                                       est.value, est.passed, std_error=est.std_error,
                                       z=est.z_score))
    all_pass = all(r["pass"] for r in records)
    _emit({"pass": all_pass, "checks": records}, args.out)
    if not all_pass:
        failed = [r["name"] for r in records if not r["pass"]]
        print(f"failed identities: {', '.join(failed)}", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_INVALID


def cmd_spectrum(args) -> int:
    model = _load_model(args.model)
    spectra = np.array([angular_power_spectrum(model, n) for n in range(model.max_degree + 1)])
    with _output(args.out) as fh:
        _write_table(fh, args.format, ["degree", "component_i", "component_j", "value"],
                     [(i, j, "%r") for i in range(model.m) for j in range(model.m)],
                     [(range(len(spectra)), spectra)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isofield",
        description="Isotropic vector random fields on spheres and projective spaces: "
        "model validation, covariance evaluation, series simulation, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, out="output path (default stdout)"):
        """--out plus whichever of --model, --seed and --format the command reads."""
        if "model" in flags:
            p.add_argument("--model", required=True, help="model JSON file")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help="master seed (fixed default)")
        p.add_argument("--out", default=None, help=out)
        if "format" in flags:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("validate", help="check a model file against the validity conditions")
    common(p, "model", "format")
    p.add_argument("--lags", help="probe lags (default -2,-1,0,1,2; spatial models: 0 only)")
    p.set_defaults(func=cmd_validate, format="json")

    p = sub.add_parser("eval-cov", help="tabulate the covariance over a distance/lag grid")
    common(p, "model", "format")
    p.add_argument("--rho-grid", default=f"0:{math.pi}:25",
                   help="distance grid start:stop:count within [0, pi]")
    p.add_argument("--lags", default="0", help="comma-separated time lags")
    p.add_argument("--trunc", type=int, default=None, help="series truncation degree")
    p.set_defaults(func=cmd_eval_cov)

    p = sub.add_parser("simulate", help="draw one realization and write CSV plus sidecar")
    common(p, "model", "seed", out="values CSV path (default realization.csv); the sidecar "
           "goes beside it as <stem>.meta.json")
    p.add_argument("--points", required=True,
                   help="'random:K', 'fibonacci:K' (sphere:2), or a coordinate CSV file")
    p.add_argument("--times", default="0",
                   help="time grid for temporal models (spatial models: 0 only)")
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(func=cmd_simulate, out="realization.csv")

    p = sub.add_parser("check", help="run the identity suite and Monte-Carlo oracles")
    common(p, "seed")
    p.add_argument("--spaces", default=None,
                   help="comma-separated spaces for the Monte-Carlo oracles")
    p.add_argument("--replicates", type=int, default=20_000)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="emit the per-degree angular power spectrum")
    common(p, "model", "format")
    p.set_defaults(func=cmd_spectrum)
    return parser


_NUMERIC_LIST_FLAGS = ("--lags", "--times", "--rho-grid")


def _normalize_argv(argv):
    """Join numeric-list flags with values starting in '-' and a digit or '.' (negative
    lags such as -1 or -.5), which argparse would otherwise read as option strings."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _NUMERIC_LIST_FLAGS and nxt and nxt[0] == "-" and nxt[1:2] in tuple("0123456789."):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the parse-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own message names no flag
            raise UsageError(f"--seed {args.seed} must be a non-negative integer")
        if args.func is cmd_simulate:
            if args.out == "-":
                raise UsageError("--out - would be stdout, but simulate writes a values CSV and "
                                 "a .meta.json sidecar beside it, so --out needs a file path")
            _out_file(args.out, "simulate writes a values CSV there and a .meta.json sidecar "
                      "beside it")
            meta = _sidecar_path(args.out)  # in --out's folder, which passed _out_file
            link = "is a directory" if meta.is_dir() else _dangling(meta)
            if link:
                raise UsageError(f"--out {args.out!r}: its sidecar {str(meta)!r} {link}")
        elif args.out not in (None, "-"):
            _out_file(args.out, "the command writes a file there")
        return args.func(args)
    except GeometryError as exc:
        print(f"unsupported geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NumericError, OSError, ValueError) as exc:  # ModelFormatError and UsageError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
