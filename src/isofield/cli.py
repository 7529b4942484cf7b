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
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import GeometryError, ModelError, NumericError, UsageError
from .modelio import load_model
from .simulate import save_realization, simulate_spatiotemporal, substream
from .spaces import (
    SpaceFamily,
    all_reference_spaces,
    normalize_points,
    parse_space,
    points_from_reals,
    sample_uniform,
    sample_uniform_batch,
)
from .spectral import angular_power_spectrum, eval_cov, truncation_bound
from .verify import check_space_identities, mc_funk_hecke, mc_zonal_covariance

DEFAULT_SEED = 0xC0FFEE

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
MAX_COUNT = 1_000_000  # grid distances, generated points or replicates; more outgrows memory
MAX_VALUES = 10_000_000  # float64 values (80 MB) one eval-cov table or simulate run may hold


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


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform golden-angle grid on the 2-sphere."""
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _is_generated(spec: str) -> bool:
    """A 'kind:K' point-set spec rather than the path of an existing point file."""
    return ":" in spec and not Path(spec).exists()


def _points_spec(spec: str):
    """The sidecar's record of a point-set specifier: a generated spec as typed,
    or a point file's name and the SHA-256 of its bytes."""
    if _is_generated(spec):
        return spec
    path = Path(spec)
    return {"file": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def resolve_points(space, spec: str, seed: int) -> np.ndarray:
    """Point-set specifier: 'random:K', 'fibonacci:K', or a coordinate CSV.

    Returns the (K, *ambient_shape) array of unit representatives.
    """
    if _is_generated(spec):
        kind, _, arg = spec.partition(":")
        if kind not in ("random", "fibonacci"):
            raise UsageError(f"unknown point specifier {spec!r}")
        count = _parse_count("point set", spec, arg)
        if kind == "random":
            return sample_uniform_batch(space, count, substream(seed, 2))
        if space.family is not SpaceFamily.SPHERE or space.d != 2:
            raise UsageError("fibonacci point sets are defined on sphere:2 only")
        return normalize_points(space, _fibonacci_sphere(count))
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"point file {spec!r} does not exist")
    rows = []
    for k, line in enumerate(path.read_text().splitlines(), 1):
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
    if not rows:
        raise UsageError(f"no points found in {spec!r}")
    reals = np.array(rows)
    return normalize_points(space, points_from_reals(space, reals))


@contextlib.contextmanager
def _output(out_path: str | None):
    """The text stream to write to: stdout for None or '-', else the file (CRLF kept)."""
    if out_path in (None, "-"):
        yield sys.stdout
    else:
        with open(out_path, "w", newline="") as fh:
            yield fh


def _emit(doc, fmt: str, out_path: str | None, header=()) -> None:
    """doc as JSON, or in csv format its rows (dicts) under header."""
    with _output(out_path) as fh:
        if fmt == "json":
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([row[h] for h in header] for row in doc)


def _entry_rows(mat, **fields) -> list[dict]:
    """One output row per matrix entry: fields plus component_i, component_j, value."""
    return [dict(fields, component_i=i, component_j=j, value=float(mat[i, j]))
            for i in range(mat.shape[0]) for j in range(mat.shape[1])]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_validate(args) -> int:
    model = load_model(args.model)
    report = model.validate(None if args.lags is None else _parse_lags(args.lags))
    doc = report.as_dict() if args.format == "json" else [v.as_dict() for v in report.violations]
    _emit(doc, args.format, args.out, ["degree", "lag", "kind", "magnitude"])
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_eval_cov(args) -> int:
    model = load_model(args.model)
    rhos = _parse_grid(args.rho_grid)
    lags = _parse_lags(args.lags)
    _require_values("--rho-grid and --lags", len(rhos), len(lags), model.m**2)
    trunc = args.trunc if args.trunc is not None else model.max_degree
    bound = truncation_bound(model, trunc)
    covs = np.empty((len(rhos), len(lags), model.m, model.m))
    for k, lag in enumerate(lags):
        covs[:, k] = eval_cov(model, rhos, lag, trunc)
    if args.format == "json":
        rows = [row for r, rho in enumerate(rhos) for lag, cov in zip(lags, covs[r])
                for row in _entry_rows(cov, rho=float(rho), lag=lag, tail_bound=bound)]
        _emit(rows, "json", args.out)
        return EXIT_OK
    # One %-format per distance over its values, in C order, in csv.writer's dialect (as
    # save_realization): the distance's repr joined with the row tails shared by all
    tails = ["", *(f",{lag!r},{i},{j},%r,{bound!r}\r\n"
                   for lag in lags for i in range(model.m) for j in range(model.m))]
    with _output(args.out) as fh:
        fh.write("rho,lag,component_i,component_j,value,tail_bound\r\n")
        for rho, values in zip(rhos.tolist(), covs.reshape(len(rhos), -1).tolist()):
            fh.write(repr(rho).join(tails) % tuple(values))
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    points = resolve_points(model.space, args.points, args.seed)
    times = sorted(_parse_lags(args.times))
    _require_values("--points and --times", len(points), len(times), model.m)
    real = simulate_spatiotemporal(model, points, times, args.trunc, args.seed)
    out = Path(args.out if args.out else "realization.csv")
    csv_path, meta_path = save_realization(real, out, points_spec=_points_spec(args.points))
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


def _mc_record(space, name: str, identity: str, est) -> dict:
    """One Monte-Carlo check as a `check` record."""
    return {
        "space": space.label,
        "name": name,
        "identity": identity,
        "target": float(np.asarray(est.target)),
        "estimate": float(np.asarray(est.value)),
        "std_error": float(np.asarray(est.std_error)),
        "z": est.z_score,
        "pass": est.passed,
        "tolerance": None,
    }


def cmd_check(args) -> int:
    rep = args.replicates
    if not 2 <= rep <= MAX_COUNT:
        raise UsageError(f"--replicates {rep} must lie in 2..{MAX_COUNT} (the cap)")
    mc_spaces = [parse_space(s) for s in args.spaces.split(",")] if args.spaces else [
        s for s in all_reference_spaces() if s.family is not SpaceFamily.OCTONION_PROJECTIVE
    ]
    records = []
    for space in all_reference_spaces():
        report = check_space_identities(space)
        for chk in report.checks:
            rec = chk.as_dict()
            rec["space"] = space.label
            rec.update({"estimate": rec.pop("value"), "std_error": None, "z": None})
            records.append(rec)
    for space in mc_spaces:
        rng = substream(args.seed, 3)
        x1 = sample_uniform(space, rng)
        x2 = sample_uniform(space, rng)
        for i, j in ((0, 0), (1, 1), (2, 1), (1, 3)):
            est = mc_funk_hecke(space, i, j, x1, x2, replicates=rep, seed=args.seed + i * 7 + j)
            records.append(_mc_record(space, f"funk_hecke_{i}_{j}", FUNK_HECKE_IDENTITY, est))
        for n in (1, 2):
            chk = mc_zonal_covariance(space, n, x1, x2, replicates=rep, seed=args.seed + 13 * n)
            for label, est in (("mean", chk.mean), ("cov", chk.covariance), ("cross", chk.cross)):
                records.append(_mc_record(space, f"zonal_{label}_{n}", ZONAL_IDENTITY, est))
    all_pass = all(r["pass"] for r in records)
    _emit({"pass": all_pass, "checks": records}, "json", args.out)
    if not all_pass:
        failed = [r["name"] for r in records if not r["pass"]]
        print(f"failed identities: {', '.join(failed)}", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_INVALID


def cmd_spectrum(args) -> int:
    model = load_model(args.model)
    rows = []
    for n in range(model.max_degree + 1):
        rows += _entry_rows(angular_power_spectrum(model, n), degree=n)
    _emit(rows, args.format, args.out, ["degree", "component_i", "component_j", "value"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isofield",
        description="Isotropic vector random fields on spheres and projective spaces: "
        "model validation, covariance evaluation, series simulation, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """--out plus whichever of --model, --seed and --format the command reads."""
        if "model" in flags:
            p.add_argument("--model", required=True, help="model JSON file")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help="master seed (fixed default)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
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
    common(p, "model", "seed")
    p.add_argument("--points", required=True,
                   help="'random:K', 'fibonacci:K' (sphere:2), or a coordinate CSV file")
    p.add_argument("--times", default="0",
                   help="time grid for temporal models (spatial models: 0 only)")
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

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
