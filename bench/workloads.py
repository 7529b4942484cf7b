"""The three benchmark workloads: inputs from a seed, the timed body, output checks.

Each workload has three parts that run in different processes:

* ``generate(seed, workdir)`` runs in the orchestrator. It draws every input
  (coefficient matrices, point coordinates, replicate master seeds, lag
  grids) from the workload seed, writes the model files, and returns a
  JSON-serialisable plan.
* ``body(plan, rep_dir, iso)`` runs in a fresh worker process. It is the
  timed part: it calls the program (CLI ``main`` in-process or library
  functions) with the plan's files and arrays, and returns one record per
  operation. ``iso`` is the imported ``isofield`` package.
* ``check(plan, rep_dir, record)`` runs in the orchestrator after the
  worker exits, so the checks add nothing to the worker's time or memory.
  It returns the number of operations whose output was wrong, plus
  messages.

An operation is one CLI invocation or one top-level library call; it fails
on a nonzero exit, a raised exception, or a failed output check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# field_map: values-CSV digests are recorded per input variant, so the
# workload seed selects one of DIGEST_VARIANTS recorded input sets.
DIGEST_VARIANTS = 64
FIELD_MAP_DEGREE = 30
FIELD_MAP_SPECS = (("sphere:2", "fibonacci:30000", 30000), ("projH:8", "random:10000", 10000))

ENSEMBLE_REPLICATES = 1000
ENSEMBLE_PAIRS = ((0, 0), (0, 1), (0, 3), (1, 2), (4, 5))
ENSEMBLE_LAGS = (-2.0, -1.0, 0.0, 1.0, 2.0)
ENSEMBLE_TIMES = (0.0, 1.0, 2.0)
Z_LIMIT = 5.0

COV_DEGREE = 60
COV_M = 3
COV_PROBE_LAGS = 41
COV_DISTANCES = 60
COV_LAGS = 9
COV_REL_TOL = 1e-10
RECOVER_TOL = 1e-8


# --------------------------------------------------------------------------
# Shared helpers (orchestrator side; numpy is imported lazily so the worker
# never pays for this module's input-generation code)
# --------------------------------------------------------------------------


def _rng(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _unit_psd(rng, m: int):
    """Exactly symmetric positive definite m x m matrix with spectral norm 1."""
    import numpy as np

    a = rng.standard_normal((m, m))
    w = a @ a.T / m + 0.2 * np.eye(m)
    w = 0.5 * (w + w.T)
    return w / np.linalg.eigvalsh(w)[-1]


def _jacobi_at_one(n: int, alpha: float) -> float:
    return math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0) - math.lgamma(alpha + 1.0))


def _rows(mat) -> list[list[float]]:
    return [[float(v) for v in row] for row in mat]


def _write_model(path: Path, doc: dict) -> str:
    """Write a model file and return its expected model hash.

    The hash is SHA-256 of the canonical JSON form of the document, which is
    how the model file format defines a model's identity.
    """
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def _check_sidecar(meta_path: Path, seed: int, trunc: int, model_hash: str) -> list[str]:
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{meta_path.name}: unreadable sidecar ({exc})"]
    errors = []
    for key, want in (("seed", seed), ("trunc", trunc), ("model_hash", model_hash)):
        if meta.get(key) != want:
            errors.append(f"{meta_path.name}: {key} is {meta.get(key)!r}, expected {want!r}")
    return errors


def _cli(iso, argv: list[str]) -> dict:
    """One CLI invocation in-process; the record says whether it exited 0."""
    try:
        code = iso.cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return {"ok": False, "error": f"{argv[0]}: {type(exc).__name__}: {exc}"}
    if code != 0:
        return {"ok": False, "error": f"{argv[0]}: exit code {code}"}
    return {"ok": True}


def _call(fn, *args, **kwargs):
    """One library call; returns (result, error message or None)."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:
        return None, f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}"


def fill_rep(argv: list[str], rep_dir: Path) -> list[str]:
    return [a.replace("{rep}", str(rep_dir)) for a in argv]


# --------------------------------------------------------------------------
# field_map: CLI simulate of two spatial models on large point sets
# --------------------------------------------------------------------------


def field_map_generate(seed: int, workdir: Path) -> dict:
    variant = int(seed) % DIGEST_VARIANTS
    rng = _rng(variant, 1)
    runs = []
    for space, points, npoints in FIELD_MAP_SPECS:
        alpha = (int(space.split(":")[1]) - 2) / 2.0
        decay = float(rng.uniform(0.7, 0.9))
        coeffs = [
            _rows(decay**n / _jacobi_at_one(n, alpha) * _unit_psd(rng, 2))
            for n in range(FIELD_MAP_DEGREE + 1)
        ]
        doc = {"space": space, "m": 2, "coeffs": coeffs}
        name = space.replace(":", "")
        model_path = workdir / f"field_map_{name}.json"
        sim_seed = int(rng.integers(0, 2**31 - 1))
        runs.append(
            {
                "label": name,
                "model": str(model_path),
                "model_hash": _write_model(model_path, doc),
                "seed": sim_seed,
                "values": 2 * npoints,
                "argv": [
                    "simulate", "--model", str(model_path), "--points", points,
                    "--seed", str(sim_seed), "--out", "{rep}/" + name + ".csv",
                ],
            }
        )
    return {"workload": "field_map", "variant": variant, "runs": runs,
            "models": [r["model"] for r in runs],
            "cli_csv": [r["label"] + ".csv" for r in runs],
            "items": sum(r["values"] for r in runs)}


def field_map_body(plan: dict, rep_dir: Path, iso) -> dict:
    ops = [_cli(iso, fill_rep(run["argv"], rep_dir)) for run in plan["runs"]]
    return {"ops": ops}


def _load_digests() -> dict:
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def field_map_check(plan: dict, rep_dir: Path, record: dict) -> tuple[int, list[str]]:
    digests = _load_digests().get(str(plan["variant"]), {})
    failed, messages = 0, []
    for run, op in zip(plan["runs"], record["ops"]):
        if not op["ok"]:
            continue  # already counted as failed by the worker
        csv_path = rep_dir / f"{run['label']}.csv"
        errors = []
        want = digests.get(run["label"])
        if want is None:
            errors.append(f"no recorded digest for variant {plan['variant']} {run['label']}")
        elif not csv_path.exists() or file_sha256(csv_path) != want:
            errors.append(f"{csv_path.name}: values CSV differs from the recorded digest")
        errors += _check_sidecar(
            rep_dir / f"{run['label']}.meta.json", run["seed"], FIELD_MAP_DEGREE, run["model_hash"]
        )
        if errors:
            failed += 1
            messages += errors
    return failed, messages


def field_map_outputs(plan: dict, rep_dir: Path) -> list[Path]:
    out = []
    for run in plan["runs"]:
        out += [rep_dir / f"{run['label']}.csv", rep_dir / f"{run['label']}.meta.json"]
    return out


# --------------------------------------------------------------------------
# ensemble: many small library simulations and their empirical covariances
# --------------------------------------------------------------------------


def ensemble_generate(seed: int, workdir: Path) -> dict:
    import numpy as np

    rng = _rng(seed, 2)
    decay = float(rng.uniform(0.4, 0.8))
    spatial = {"space": "sphere:2", "m": 2,
               "coeffs": [_rows(decay**n * _unit_psd(rng, 2)) for n in range(3)]}
    sigmas = [0.8**n * _unit_psd(rng, 2) + 0.1 * np.eye(2) for n in range(3)]
    phi = rng.uniform(-0.5, 0.5, (2, 2))
    ma1 = {"space": "sphere:2", "m": 2, "coeffs": [_rows(s) for s in sigmas],
           "temporal": {"variant": "ma1", "phi": _rows(phi)}}
    paths = {"spatial": workdir / "ensemble_spatial.json", "ma1": workdir / "ensemble_ma1.json"}
    hashes = {key: _write_model(paths[key], doc) for key, doc in
              (("spatial", spatial), ("ma1", ma1))}

    def unit_points(k):
        g = rng.standard_normal((k, 3))
        return _rows(g / np.linalg.norm(g, axis=1, keepdims=True))

    return {
        "workload": "ensemble",
        "models": [str(paths["spatial"]), str(paths["ma1"])],
        "spatial": {"model": str(paths["spatial"]), "model_hash": hashes["spatial"],
                    "doc": spatial, "points": unit_points(6),
                    "master_seed": int(rng.integers(0, 2**31 - 1))},
        "ma1": {"model": str(paths["ma1"]), "model_hash": hashes["ma1"], "doc": ma1,
                "points": unit_points(2), "master_seed": int(rng.integers(0, 2**31 - 1))},
        "replicates": ENSEMBLE_REPLICATES,
        "cli_csv": [],
        "items": 2 * ENSEMBLE_REPLICATES,
    }


def _estimate_record(est, err, label) -> dict:
    if err is not None:
        return {"ok": False, "error": err, "label": label}
    import numpy as np

    return {"ok": True, "label": label, "value": np.asarray(est.value).tolist(),
            "std_error": np.asarray(est.std_error).tolist(),
            "target": np.asarray(est.target).tolist(), "z": float(est.z_score)}


def _ensemble_part(iso, part: dict, simulate, lags_pairs, rep_dir: Path, name: str) -> list:
    ops = []
    model, err = _call(iso.load_model, part["model"])
    ops.append({"ok": err is None, "error": err})
    if err is not None:
        return ops
    points = []
    for coords in part["points"]:
        p, err = _call(iso.make_point, model.space, coords)
        ops.append({"ok": err is None, "error": err})
        points.append(p)
    if None in points:
        return ops
    seeds, err = _call(iso.replicate_seeds, part["master_seed"], ENSEMBLE_REPLICATES)
    ops.append({"ok": err is None, "error": err})
    if err is not None:
        return ops
    ensemble, sim_failed, first_error = [], 0, None
    for s in seeds:
        real, err = _call(simulate, model, points, s)
        if err is None:
            ensemble.append(real)
        else:
            sim_failed += 1
            first_error = first_error or err
    ops.append({"ok": sim_failed == 0, "error": first_error, "count": len(seeds),
                "failed": sim_failed})
    if sim_failed:
        return ops
    for pair, lag in lags_pairs:
        est, err = _call(iso.empirical_cov, ensemble, pair, lag)
        ops.append(_estimate_record(est, err, {"part": name, "pair": list(pair), "lag": lag}))
    _, err = _call(iso.save_realization, ensemble[0], rep_dir / f"{name}.csv")
    ops.append({"ok": err is None, "error": err, "saved": name, "seed": seeds[0]})
    return ops


def ensemble_body(plan: dict, rep_dir: Path, iso) -> dict:
    times = list(ENSEMBLE_TIMES)
    spatial_ops = _ensemble_part(
        iso, plan["spatial"],
        lambda model, pts, s: iso.simulate_spatial(model, pts, trunc=2, seed=s),
        [(pair, 0.0) for pair in ENSEMBLE_PAIRS], rep_dir, "spatial")
    ma1_ops = _ensemble_part(
        iso, plan["ma1"],
        lambda model, pts, s: iso.simulate_spatiotemporal(model, pts, times, trunc=2, seed=s),
        [((0, 1), lag) for lag in ENSEMBLE_LAGS], rep_dir, "ma1")
    return {"ops": spatial_ops + ma1_ops}


def _model_cov(doc: dict, points, pair, lag: float):
    """Independent target: sum_n B_n(lag) P_n(cos rho) on sphere:2 (Legendre)."""
    import numpy as np
    from scipy.special import eval_jacobi

    a, b = (np.asarray(points[i]) for i in pair)
    x = float(np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
    total = np.zeros((2, 2))
    phi = np.asarray(doc["temporal"]["phi"]) if "temporal" in doc else None
    for n, c in enumerate(doc["coeffs"]):
        sigma = np.asarray(c)
        if phi is None:
            bn = sigma
        elif lag == 0.0:
            bn = sigma + phi @ sigma @ phi.T
        elif lag == 1.0:
            bn = phi @ sigma
        elif lag == -1.0:
            bn = sigma @ phi.T
        else:
            bn = np.zeros((2, 2))
        total += bn * eval_jacobi(n, 0.0, 0.0, x)
    return total


def ensemble_check(plan: dict, rep_dir: Path, record: dict) -> tuple[int, list[str]]:
    import numpy as np

    failed, messages = 0, []
    for op in record["ops"]:
        if not op["ok"]:
            continue
        if "value" in op:
            part = plan[op["label"]["part"]]
            target = _model_cov(part["doc"], part["points"], op["label"]["pair"], op["label"]["lag"])
            value, se = np.asarray(op["value"]), np.asarray(op["std_error"])
            scale = max(1.0, float(np.max(np.abs(target))))
            live = se > 1e-13 * scale
            z = float(np.max(np.abs(value - target)[live] / se[live])) if live.any() else 0.0
            dead_ok = bool(np.all(np.abs(value - target)[~live] <= 1e-12 * scale))
            target_ok = bool(np.max(np.abs(np.asarray(op["target"]) - target)) <= 1e-10 * scale)
            if not (z <= Z_LIMIT and op["z"] <= Z_LIMIT and dead_ok and target_ok):
                failed += 1
                messages.append(f"empirical_cov {op['label']}: z={z:.2f} "
                                f"(program z={op['z']:.2f}, target ok={target_ok})")
        elif "saved" in op:
            part = plan[op["saved"]]
            errors = _check_sidecar(rep_dir / f"{op['saved']}.meta.json", op["seed"], 2,
                                    part["model_hash"])
            if errors:
                failed += 1
                messages += errors
    return failed, messages


def ensemble_outputs(plan: dict, rep_dir: Path) -> list[Path]:
    return [rep_dir / f"{n}{ext}" for n in ("spatial", "ma1") for ext in (".csv", ".meta.json")]


# --------------------------------------------------------------------------
# cov_table: validate, tabulate and invert one high-degree exponential model
# --------------------------------------------------------------------------


def cov_table_generate(seed: int, workdir: Path) -> dict:
    import numpy as np

    rng = _rng(seed, 3)
    alpha = 1.0  # projC:4 has Jacobi parameters (1, 0)
    r = float(rng.uniform(0.8, 0.9))
    theta = float(rng.uniform(0.5, 2.0))
    coeffs = [_rows(r**n / _jacobi_at_one(n, alpha) * _unit_psd(rng, COV_M))
              for n in range(COV_DEGREE + 1)]
    doc = {"space": "projC:4", "m": COV_M, "coeffs": coeffs, "tail": {"c": 1.0, "r": r},
           "temporal": {"variant": "exponential", "theta": theta}}
    model_path = workdir / "cov_table_projC4.json"
    _write_model(model_path, doc)
    step = float(rng.uniform(0.05, 0.25))
    half = COV_PROBE_LAGS // 2
    probe = [step * k for k in range(-half, half + 1)]
    lo, hi = float(rng.uniform(0.0, 0.1)), math.pi - float(rng.uniform(0.0, 0.1))
    lags = [0.0] + [float(v) for v in rng.uniform(-3.0, 3.0, COV_LAGS - 1)]
    lag_text = ",".join(repr(v) for v in lags)
    return {
        "workload": "cov_table",
        "models": [str(model_path)],
        "model": str(model_path),
        "doc": doc,
        "validate_argv": ["validate", "--model", str(model_path),
                          "--lags=" + ",".join(repr(v) for v in probe),
                          "--out", "{rep}/validate.json"],
        "eval_argv": ["eval-cov", "--model", str(model_path),
                      "--rho-grid", f"{lo!r}:{hi!r}:{COV_DISTANCES}", "--lags=" + lag_text,
                      "--trunc", str(COV_DEGREE), "--out", "{rep}/cov.csv"],
        "cli_csv": ["cov.csv"],
        "items": COV_DISTANCES * COV_LAGS * COV_M * COV_M,
    }


def cov_table_body(plan: dict, rep_dir: Path, iso) -> dict:
    ops = [_cli(iso, fill_rep(plan["validate_argv"], rep_dir)),
           _cli(iso, fill_rep(plan["eval_argv"], rep_dir))]

    def recover():
        model = iso.load_model(plan["model"])
        rec = iso.recover_coefficients(
            lambda rho: iso.eval_cov(model, rho, 0.0), model.space, model.m,
            N=COV_DEGREE, order=COV_DEGREE + 1)
        return [c.tolist() for c in rec.coeffs]

    coeffs, err = _call(recover)
    ops.append({"ok": err is None, "error": err, "recovered": coeffs})
    return {"ops": ops}


def _check_table(plan: dict, path: Path) -> list[str]:
    import csv

    import numpy as np
    from scipy.special import eval_jacobi

    doc = plan["doc"]
    coeffs = np.asarray(doc["coeffs"])  # (N+1, m, m)
    theta, tail = doc["temporal"]["theta"], doc["tail"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    want_rows = plan["items"]
    if len(rows) != want_rows:
        return [f"{path.name}: {len(rows)} rows, expected {want_rows}"]
    rho = np.array([float(r["rho"]) for r in rows])
    lag = np.array([float(r["lag"]) for r in rows])
    i = np.array([int(r["component_i"]) for r in rows])
    j = np.array([int(r["component_j"]) for r in rows])
    value = np.array([float(r["value"]) for r in rows])
    bound = np.array([float(r["tail_bound"]) for r in rows])
    x = np.cos(rho)
    pn = np.stack([eval_jacobi(n, 1.0, 0.0, x) for n in range(len(coeffs))])  # (N+1, rows)
    terms = coeffs[:, i, j] * pn * np.exp(-theta * np.abs(lag))
    ref = terms.sum(axis=0)
    scale = np.maximum(np.abs(terms).sum(axis=0), np.finfo(float).tiny)
    errors = []
    worst = float(np.max(np.abs(value - ref) / scale))
    if not worst <= COV_REL_TOL:
        errors.append(f"{path.name}: worst relative error {worst:.3e} > {COV_REL_TOL:g}")
    want_bound = tail["c"] * tail["r"] ** (len(coeffs)) / (1.0 - tail["r"])
    if not np.all(np.abs(bound - want_bound) <= 1e-12 * want_bound):
        errors.append(f"{path.name}: tail_bound differs from c r^(N+1) / (1 - r)")
    return errors


def cov_table_check(plan: dict, rep_dir: Path, record: dict) -> tuple[int, list[str]]:
    import numpy as np

    validate_op, eval_op, recover_op = record["ops"]
    checks = []
    if validate_op["ok"]:
        try:
            valid = json.loads((rep_dir / "validate.json").read_text()).get("valid")
        except (OSError, ValueError) as exc:
            valid = f"unreadable ({exc})"
        checks.append([] if valid is True else [f"validate reported valid={valid!r}"])
    if eval_op["ok"]:
        checks.append(_check_table(plan, rep_dir / "cov.csv"))
    if recover_op["ok"]:
        got = np.asarray(recover_op["recovered"])
        want = np.asarray(plan["doc"]["coeffs"])
        err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
        checks.append([] if err <= RECOVER_TOL else
                      [f"recovered coefficients off by {err:.3e} > {RECOVER_TOL:g}"])
    messages = [m for c in checks for m in c]
    return sum(1 for c in checks if c), messages


def cov_table_outputs(plan: dict, rep_dir: Path) -> list[Path]:
    return [rep_dir / "validate.json", rep_dir / "cov.csv"]


WORKLOADS = {
    "field_map": (field_map_generate, field_map_body, field_map_check, field_map_outputs),
    "ensemble": (ensemble_generate, ensemble_body, ensemble_check, ensemble_outputs),
    "cov_table": (cov_table_generate, cov_table_body, cov_table_check, cov_table_outputs),
}
