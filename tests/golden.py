"""The byte contract: every case's exit code and output bytes, recorded in tests/golden.json.

    PYTHONPATH=src python tests/golden.py

re-records tests/golden.json from the running code; tests/test_golden.py runs
the same cases and compares them with it. A case is one in-process CLI run
(`isofield.cli.main(argv)`). Its entry holds the argv, the exit code, the
SHA-256 of stdout, of stderr and of every file the run wrote, and, when the
exit is not 0, the stderr text itself, so that a moved message reads as a
diff. An argument longer than 100 characters (a 10^4-time grid) is shown in
the manifest by its length and digest. The manifest also names the numpy it
was recorded with and the OpenBLAS kernel its workers ran under: output bytes
are promised for one numpy and one kernel, exit codes for every numpy that
pyproject.toml admits on every CPU. The workers run under BLAS_KERNEL
(OPENBLAS_CORETYPE), which any CPU with AVX2 and FMA can run, so the bytes
do not move with a CPU's own choice of kernel (SkylakeX on AVX-512 hosts).

The cases:

- `simulate` of five kernels (spatial, pure_spatial, ar1, exponential, ma1)
  on sphere:1, sphere:2, projC:4 and projH:8 at m = 1, 2 and 3, on the time
  grid 0, a 40-time and a 10^4-time grid, with generated points (random:3)
  and a point file; `validate`, `eval-cov` and `spectrum` of every one of
  these models, in csv and in json (720 runs);
- `check` with its defaults, and on four spaces at 2,000 replicates;
- named inputs at the documented limits, one for each exit they end in:
  caps, overflow, malformed and extreme model files, spaces, degree counts
  and point files, on every command that reads them; a directory and a
  missing name as each command's --model, and as its --out a directory, a file in
  a missing folder and a file in a file; simulate's sidecar a directory, and an unknown
  point specifier;
- a one-value realization (one point, one time, m = 1), summed as in a larger set.

Every case runs in a fresh temporary directory with relative paths, so no
machine path enters the bytes; two worker processes share the cases. A case
fails, whatever the manifest says, when an exception escapes `main`, when
it warns, when its exit is not 0, 1, 2 or 3, or when its stderr does not
start as that exit documents. Such a case is never recorded.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from isofield import parse_space, sample_uniform_batch
from isofield.cli import main
from isofield.spaces import points_to_reals

MANIFEST = Path(__file__).with_name("golden.json")
WORKERS = 2
BLAS_KERNEL = "Haswell"  # OpenBLAS's AVX2 and FMA kernels, which AMD Zen hosts get too

SPACES = ("sphere:1", "sphere:2", "projC:4", "projH:8")
KERNELS = {
    "spatial": None,
    "pure_spatial": {"variant": "pure_spatial"},
    "ar1": {"variant": "ar1", "phi": -0.6},
    "exponential": {"variant": "exponential", "theta": 1.5},
    "ma1": "phi",  # an m x m phi, filled in per m
}
GRIDS = {"1": "0", "40": ",".join(map(str, range(40))),  # a spatial model takes "0" only
         "10000": ",".join(map(str, range(10_000)))}
DEGREES = 4
# every command that reads a model file, with the flags it needs besides --model
MODEL_READERS = {"validate": [], "eval-cov": [], "spectrum": [],
                 "simulate": ["--points", "random:3"]}
# the stderr a documented exit starts with; "" admits an empty stderr only
STDERR_STARTS = {0: ("", "wrote "), 1: ("", "invalid model: ", "failed identities: "),
                 2: ("error: ",), 3: ("unsupported geometry: ",)}
# at the dimension cap, one past it, and the space without point geometry
DIMENSIONS = ("sphere:1000", "projR:1000", "projH:1000", "sphere:1001", "projO:16")
HUGE = "1" + "0" * 400  # a JSON integer past the largest float


def _model_doc(label: str, m: int, kernel: str) -> dict:
    """A valid model: B_n = A A^T / (n + 1)^3 for a fixed random A per space and m."""
    rng = np.random.default_rng([SPACES.index(label), m])
    coeffs = []
    for n in range(DEGREES):
        a = rng.standard_normal((m, m))
        coeffs.append((a @ a.T / m / (n + 1) ** 3).tolist())
    doc = {"space": label, "m": m, "coeffs": coeffs}
    temporal = KERNELS[kernel]
    if temporal == "phi":
        temporal = {"variant": "ma1", "phi": (0.3 * np.eye(m) + 0.05).tolist()}
    if temporal is not None:
        doc["temporal"] = temporal
    return doc


def _stem(label: str) -> str:
    return label.replace(":", "")


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


def _series(space: str, degrees: int, power: int, **fields) -> bytes:
    """An m = 1 model with B_n = 1 / (n + 1)^power."""
    coeffs = [[[1.0 / (n + 1) ** power]] for n in range(degrees)]
    return _json({"space": space, "m": 1, "coeffs": coeffs, **fields})


def _malformed() -> dict[str, bytes]:
    """Model files that break the schema, or hold a number no float holds, one per way."""
    one = {"space": "sphere:2", "m": 1, "coeffs": [[[1.0]], [[0.5]]]}
    two = {**one, "m": 2, "coeffs": [[[1.0, 0.0], [0.0, 1.0]]]}
    docs = {
        "list": [one],
        "text_entry": {**one, "coeffs": [[["1.0"]]]},
        "coeffs_object": {**one, "coeffs": {"0": [[1.0]]}},
        "huge_m": {**one, "m": 10**30},
        "temporal_list": {**one, "temporal": ["ar1", 0.5]},
        "variant_list": {**one, "temporal": {"variant": ["ar1"], "phi": 0.5}},
        "variant_object": {**one, "temporal": {"variant": {"ar1": 0.5}}},
        "ma1_scalar_phi": {**two, "temporal": {"variant": "ma1", "phi": 0.5}},
        "ma1_ragged_phi": {**two, "temporal": {"variant": "ma1", "phi": [[0.1, 0.0], [0.0]]}},
        "nan_coeff": {**one, "coeffs": [[[float("nan")]]]},
        "nan_tail": {**one, "tail": {"c": float("nan"), "r": 0.5}},
    }
    files = {f"bad_{name}.json": _json(doc) for name, doc in docs.items()}
    files["bad_empty.json"] = b""
    files["bad_1e400_coeff.json"] = _json(one).replace(b"0.5", b"1e400")
    for name, field in (("theta", {"temporal": {"variant": "exponential", "theta": "HUGE"}}),
                        ("ar1_phi", {"temporal": {"variant": "ar1", "phi": "HUGE"}}),
                        ("tail_c", {"tail": {"c": "HUGE", "r": 0.5}}),
                        ("tail_r", {"tail": {"c": 1.0, "r": "HUGE"}})):
        files[f"huge_{name}.json"] = _json({**one, **field}).replace(b'"HUGE"', HUGE.encode())
    return files


# Named inputs of the limits: caps, overflow, negative and overflowing lags, deep nesting,
# malformed files, models indefinite at lag 0, tiny and zero points, high dimension
_M1 = {"space": "sphere:2", "m": 1, "coeffs": [[[1.0]], [[0.5]]]}
_LIMIT_FILES = {
    "model.json": _json(_M1),
    "exponential.json": _json({"space": "sphere:2", "m": 2,
                               "coeffs": [[[1.0, 0.2], [0.2, 1.0]], [[0.5, 0.0], [0.0, 0.3]]],
                               "temporal": {"variant": "exponential", "theta": 1.5}}),
    "exponential1.json": _json({**_M1, "temporal": {"variant": "exponential", "theta": 1.5}}),
    "pure.json": _json({**_M1, "temporal": {"variant": "pure_spatial"}}),
    "deep.json": b"[" * 100_000 + b"\n",
    "lopsided.json": _json({"space": "sphere:2", "m": 2,
                            "coeffs": [[[1.0, 1.5e308], [-1.5e308, 1.0]]],
                            "temporal": {"variant": "exponential", "theta": 1.0}}),
    "overflow.json": _json({"space": "sphere:2", "m": 2,
                            "coeffs": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1e308], [-1e308, 0.0]],
                                       [[0.0, 1e308], [-1e308, 0.0]]]}),
    "huge.json": b'{"space": "sphere:2", "m": 1, "coeffs": [[[' + HUGE.encode() + b"]]]}\n",
    "int_space.json": _json({"space": 2, "m": 1, "coeffs": [[[1.0]]]}),
    "exp1.json": _json({"space": "sphere:2", "m": 1, "coeffs": [[[1.0]]],
                        "temporal": {"variant": "exponential", "theta": 1.0}}),
    "latin.json": b'{"space": "sphere:2", "m": 1, "coeffs": [[[1.0]]]}\xff\n',
    "ragged.csv": b"1,0,0\n0,1\n",
    "latin.csv": b"1,0,0\n\xff\xfe0,1,0\n",
    "ma1_bad.json": _json({"space": "sphere:2", "m": 2, "coeffs": [[[1.0, 0.0], [0.0, -0.1]]],
                           "temporal": {"variant": "ma1", "phi": [[0.0, 0.0], [1.0, 0.0]]}}),
    "exp_bad.json": _json({"space": "sphere:2", "m": 2, "coeffs": [[[1.0, 0.0], [0.0, -5e-10]]],
                           "temporal": {"variant": "exponential", "theta": 1.0}}),
    "tiny.csv": b"1e-200,0,0\n0,1,0\n",
    "zero.csv": b"# x,y,z\n1,0,0\n\n0,0,0\n",
    "far_ar1.json": _json({**_M1, "temporal": {"variant": "ar1", "phi": -0.6}}),
    "series41.json": _series("sphere:2", 41, 3),
    "high400.json": _series("sphere:1000", 400, 2),
    "high1000.json": _series("sphere:1000", 1000, 2),
    "sidecar_dir.meta.json/": b"",
}
_LIMIT_CASES = [
    "simulate --model model.json --points fibonacci:200 --out run.csv",
    "simulate --model series41.json --points random:1 --out one_run.csv",  # one value
    "validate --model exponential.json --lags=-0.3,0,0.25,0.7 --format csv",
    "spectrum --model pure.json",
    "validate --model exponential1.json --lags -.5,0,.5",
    "validate --model deep.json",
    "check --replicates 100000000000 --spaces sphere:2",
    "validate --model lopsided.json",
    "check --spaces sphere:99999999 --replicates 10",
    "validate --model model.json",
    "validate --model model.json --lags 5,7",
    "eval-cov --model model.json --rho-grid 0:1:1000000 --lags 0,1,2,3,4,5,6,7,8,9,10 "
    "--out table.csv",
    *(f"eval-cov --model overflow.json {flags} --out overflow_table"
      for flags in ("--format csv", "--format json", "--trunc 0")),
    "validate --model huge.json",
    "validate --model int_space.json",
    "validate --model exp1.json --lags 0,1e308,-1e308",
    "simulate --model exp1.json --points ragged.csv --out ragged_run.csv",
    "validate --model latin.json",
    "simulate --model exp1.json --points latin.csv --out latin_run.csv",
    "eval-cov --model exp1.json --lags=,",
    *(argv.format(model) for model in ("ma1_bad.json", "exp_bad.json")
      for argv in ("validate --model {}", "validate --model {} --lags 0",
                   "validate --model {} --lags 0,3",
                   "simulate --model {} --points random:3 --times 0,1 --out run.csv")),
    "simulate --model model.json --points tiny.csv --out tiny_run.csv",
    "simulate --model model.json --points zero.csv --out zero_run.csv",
    *(f"simulate --model {model}.json --points random:3 --times=-1e308,1e308 --out {model}.csv"
      for model in ("exponential1", "far_ar1")),
    "validate --model high1000.json",
    "spectrum --model high400.json",
    "simulate --model model.json --points grid:3 --out grid_run.csv",
    "simulate --model model.json --points random:3 --out sidecar_dir.csv",
]

_POINT_FILES = {
    "points_ragged.csv": b"1,0,0\n0,1,0,0\n",
    "points_comments.csv": b"# x,y,z\n\n   # no point here\n",
    "points_1e400.csv": b"1e400,0,0\n0,1,0\n",
    "points_text.csv": b"x,y,z\n1,0,0\n",
    "points_binary.csv": bytes(range(256)),
    "points_dir/": b"",
}


def inputs() -> dict[str, bytes]:
    """Every input file, by name; a name ending in '/' is an (empty) directory."""
    files = {}
    for label in SPACES:
        rows = points_to_reals(sample_uniform_batch(parse_space(label), 3,
                                                    np.random.default_rng(7)))
        files[f"{_stem(label)}_points.csv"] = "".join(
            ",".join(map(repr, row)) + "\n" for row in rows.tolist()).encode()
        for m in (1, 2, 3):
            for kernel in KERNELS:
                files[f"{_stem(label)}_m{m}_{kernel}.json"] = _json(_model_doc(label, m, kernel))
    files.update(_LIMIT_FILES)
    files.update(_malformed())
    for label in DIMENSIONS:
        files[f"dim_{_stem(label)}.json"] = _series(label, 2, 1)
    files["degrees1001.json"] = _series("sphere:2", 1001, 3)
    files.update(_POINT_FILES)
    return files


def cases() -> list[list[str]]:
    """The argv of every case, in manifest order."""
    runs = []
    for label in SPACES:
        for m in (1, 2, 3):
            for kernel in KERNELS:
                model = f"{_stem(label)}_m{m}_{kernel}.json"
                for command in ("validate", "eval-cov", "spectrum"):
                    for fmt in ("csv", "json"):
                        runs.append([command, "--model", model, "--format", fmt, "--out", "table"])
                for grid, times in GRIDS.items():
                    for points in ("random:3", f"{_stem(label)}_points.csv"):
                        runs.append(["simulate", "--model", model, "--points", points, "--times",
                                     times, "--seed", "11", "--out", f"run_{grid}.csv"])
    runs += [["check"],
             ["check", "--spaces", "sphere:1,projR:3,projC:4,projH:8", "--replicates", "2000"]]
    runs += [argv.split() for argv in _LIMIT_CASES]
    models = [*_malformed(), *(f"dim_{_stem(label)}.json" for label in DIMENSIONS),
              "degrees1001.json"]
    runs += [[command, "--model", model, *extra] for model in models
             for command, extra in MODEL_READERS.items()]
    runs += [["check", "--spaces", spaces, "--replicates", "100"]
             for spaces in ("sphere:1000,projR:1000,projH:1000", "sphere:1001", "projO:16")]
    runs += [["simulate", "--model", "model.json", "--points", name.rstrip("/")]
             for name in _POINT_FILES]
    runs += [[command, "--model", model, *extra] for model in ("points_dir", "missing.json")
             for command, extra in MODEL_READERS.items()]
    runs += [[*argv.split(), "--out", out]
             for out in ("points_dir", "nodir/x.csv", "model.json/x.csv")
             for argv in ("validate --model model.json", "eval-cov --model model.json",
                          "spectrum --model model.json",
                          "simulate --model model.json --points random:3",
                          "check --spaces sphere:2 --replicates 10")]
    return runs


def shown(argv: list[str]) -> list[str]:
    """argv as the manifest shows it: an argument over 100 characters by length and digest."""
    return [arg if len(arg) <= 100 else
            f"{arg[:24]}...[{len(arg)} chars, sha256 {_sha256(arg.encode())[:16]}]"
            for arg in argv]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(folder: Path, argv: list[str]) -> dict:
    """One case: main(argv) in folder, then its outcome. The files it wrote are removed."""
    before = set(folder.iterdir())
    out, err, escaped = io.StringIO(), io.StringIO(), None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception:  # a traceback where an exit belongs
            code, escaped = None, traceback.format_exc()
    files = {}
    for path in sorted(set(folder.iterdir()) - before):
        files[path.name] = _sha256(path.read_bytes())
        path.unlink()
    stderr = err.getvalue()
    outcome = {"argv": shown(argv), "exit": code, "stdout": _sha256(out.getvalue().encode()),
               "stderr": _sha256(stderr.encode()), "files": files}
    if code != 0:
        outcome["message"] = stderr
    faults = [f"{w.category.__name__}: {w.message}" for w in caught]
    if escaped is not None:
        faults.append(escaped)
    elif not any(stderr.startswith(start) if start else not stderr
                 for start in STDERR_STARTS.get(code, ())):
        faults.append(f"exit {code} with stderr {stderr[:200]!r}")
    if "Traceback" in stderr:
        faults.append("a traceback on stderr")
    if faults:
        outcome["faults"] = faults
    return outcome


def _run_shard(argvs: list[list[str]]) -> list[dict]:
    """The outcome of each argv, run one after another in a fresh folder of every input."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        for file, data in inputs().items():
            if file.endswith("/"):
                (folder / file).mkdir()
            else:
                (folder / file).write_bytes(data)
        os.chdir(folder)
        try:
            return [_run(folder, argv) for argv in argvs]
        finally:
            os.chdir(here)


def kernel_runs_here() -> bool:
    """The CPU has AVX2 and FMA, which BLAS_KERNEL needs, as numpy's CPU-feature table reads it."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"))


def run_cases() -> list[dict]:
    """The outcome of every case, in case order; the workers take alternate cases and run
    under BLAS_KERNEL, which OPENBLAS_CORETYPE sets as they start."""
    argvs = cases()
    context = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, OPENBLAS_CORETYPE=BLAS_KERNEL), \
            concurrent.futures.ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        shards = list(pool.map(_run_shard, [argvs[k::WORKERS] for k in range(WORKERS)]))
    outcomes = [None] * len(argvs)
    for k, shard in enumerate(shards):
        outcomes[k::WORKERS] = shard
    return outcomes


def name(outcome: dict) -> str:
    return " ".join(outcome["argv"])


def faults(outcomes: list[dict]) -> list[str]:
    """Each case that broke the contract every exit keeps, with how."""
    return [f"{name(o)}: {'; '.join(o['faults'])}" for o in outcomes if "faults" in o]


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def unmatched(manifest: dict, outcomes: list[dict]) -> list[str]:
    """Cases with no manifest entry, and manifest entries with no case."""
    recorded = {name(entry) for entry in manifest["cases"]}
    ran = {name(o) for o in outcomes}
    return ([f"not in the manifest: {case}" for case in sorted(ran - recorded)]
            + [f"stale manifest entry: {case}" for case in sorted(recorded - ran)])


def moved(manifest: dict, outcomes: list[dict], half: str) -> list[str]:
    """Each case whose outcome differs from its manifest entry, naming what moved. The "exit"
    half compares exit codes and the written files' names, the "bytes" half every digest and
    the message."""
    recorded = {name(entry): entry for entry in manifest["cases"]}
    report = []
    for o in outcomes:
        entry = recorded.get(name(o))
        if entry is None:
            continue
        diffs = []
        if half == "exit":
            if o["exit"] != entry["exit"]:
                diffs.append(f"exit {entry['exit']} -> {o['exit']}")
            if sorted(o["files"]) != sorted(entry["files"]):
                diffs.append(f"files {sorted(entry['files'])} -> {sorted(o['files'])}")
        else:
            diffs += [key for key in ("stdout", "stderr") if o[key] != entry[key]]
            diffs += [f"file {file}" for file, digest in o["files"].items()
                      if entry["files"].get(file, digest) != digest]
            if o.get("message") != entry.get("message"):
                diffs.append(f"message {entry.get('message')!r} -> {o.get('message')!r}")
        if diffs:
            report.append(f"{name(o)}: {', '.join(diffs)}")
    return report


def record(outcomes: list[dict]) -> None:
    """Write the manifest, one case a line, unless a case broke the contract."""
    broken = faults(outcomes)
    if broken:
        sys.exit("not recorded; these cases broke the exit contract:\n" + "\n".join(broken))
    lines = ",\n".join(json.dumps(o, sort_keys=True) for o in outcomes)
    MANIFEST.write_text(f'{{"numpy": {json.dumps(np.__version__)}, "blas_kernel": '
                        f'{json.dumps(BLAS_KERNEL)}, "cases": [\n{lines}\n]}}\n')
    print(f"recorded {len(outcomes)} cases for numpy {np.__version__} and the OpenBLAS kernel "
          f"{BLAS_KERNEL} in {MANIFEST.name}")


if __name__ == "__main__":
    if not kernel_runs_here():
        sys.exit(f"not recorded; this CPU lacks AVX2 or FMA, which the OpenBLAS kernel "
                 f"{BLAS_KERNEL} needs")
    record(run_cases())
