"""isofield benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 bench/run.py --workload field_map|ensemble|cov_table \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. Inputs are generated from --seed (same seed, same
inputs) into ``.bench_run/<workload>/`` and the program only ever sees those
files and arrays. The workload body runs in a fresh single-threaded worker
process (see worker.py) and the run is closed-loop with one client: each
call waits for the previous one.

--trace 0 repeats the body for S seconds and reports the end-to-end
metrics: medians over the repetitions, plus setup_s, the median over
SETUP_RUNS fresh interpreters that import isofield and load the
workload's model files. Times are taken at a reference CPU speed: the
host's speed is measured while the work runs by timing a fixed ruler
(ruler.py) on the same CPU, because on a shared host raw wall times swing
with the neighbours' load. Raw medians and the host speed factor are
printed alongside. --trace 1 also runs the body untraced for S
seconds, then twice more traced in two fresh workers on freshly generated
inputs from the same seed, and reports the per-layer metrics, the tracing
overhead, and whether the computed counts repeated exactly.

Every operation's output is checked here, after the worker has exited.
Failed over attempted operations is printed as error_frac; in the result
it is carried by ``attempted`` and ``failed`` rather than as a metric,
because it is 0 on a correct program. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Workloads, metric definitions and the end-to-end metric each per-layer
metric should move are listed in catalog.py. The exit code is 0 when the
workload ran (even if checks failed), and nonzero without a result line
when it could not run at all, such as when the checkout has no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

NPROC = len(os.sched_getaffinity(0))  # before run() pins this process to one CPU
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import ruler  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
DEADLINE_S = 170.0
SETUP_CODE = (
    "import sys, isofield, isofield.cli\n"
    "for path in sys.argv[1:]:\n"
    "    isofield.load_model(path)\n"
)


class BenchError(Exception):
    """The workload could not run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _environment() -> dict:
    import numpy
    import scipy

    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(cache.glob("index*")):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        llc = max(levels)[1]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "llc": llc,
        "machine": platform.machine(),
    }


def _run_worker(plan_path: Path, seconds: float, trace: bool, deadline: float) -> dict:
    result_path = plan_path.with_name("result_traced.json" if trace else "result.json")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path),
           "--seconds", repr(seconds)] + (["--trace"] if trace else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def _setup_seconds(models: list[str]) -> tuple[float, float]:
    """Median set-up time at the ruler's reference speed, and the raw median.

    Each fresh interpreter is bracketed by ruler bursts on the same CPU.
    """
    times, raw = [], []
    for _ in range(SETUP_RUNS):
        before = ruler.burst()
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *models], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        times.append(ruler.normalize(elapsed, (before + ruler.burst()) / 2.0))
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def _score(name: str, plan: dict, result: dict) -> dict:
    """Check every repetition's outputs; count operations; measure bytes written."""
    _, _, check, outputs = workloads.WORKLOADS[name]
    attempted = failed = 0
    messages: list[str] = []
    out_bytes, rows_out = [], []
    for rep in result["reps"]:
        rep_dir = Path(rep["dir"])
        for op in rep["record"]["ops"]:
            attempted += op.get("count", 1)
            if not op["ok"]:
                failed += op.get("failed", 1)
                messages.append(op["error"])
        bad, notes = check(plan, rep_dir, rep["record"])
        failed += bad
        messages += notes
        out_bytes.append(sum(p.stat().st_size for p in outputs(plan, rep_dir) if p.exists()))
        rows_out.append(sum(workloads.csv_data_rows(rep_dir / f) for f in plan["cli_csv"]
                            if (rep_dir / f).exists()))
        shutil.rmtree(rep_dir, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "out_bytes": out_bytes, "rows_out": rows_out}


def _fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _traced(name: str, seed: int, workdir: Path, seconds: float, deadline: float):
    """Two traced workers on inputs generated afresh from the same seed."""
    generate = workloads.WORKLOADS[name][0]
    runs = []
    for k in (1, 2):
        tdir = workdir / f"trace{k}"
        tdir.mkdir()
        plan = generate(seed, tdir)
        plan_path = tdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result = _run_worker(plan_path, seconds, True, deadline)
        runs.append((result, _score(name, plan, result)))
    return runs


def _repeatable(result: dict, score: dict) -> dict:
    counts = dict(result["trace"]["counts"])
    calls = result["trace"]["calls"]
    counts["simulate.substream_calls"] = calls.get("simulate.substream", 0)
    counts["out_mb"] = score["out_bytes"][0]
    return {k: counts.get(k, 0) for k in catalog.REPEATABLE}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "isofield" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'isofield'} is missing")
    # One CPU for this process and every child, so the ruler and the work it
    # calibrates always share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_run" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    generate = workloads.WORKLOADS[name][0]
    plan = generate(seed, workdir)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))

    result = _run_worker(plan_path, seconds, False, deadline)
    score = _score(name, plan, result)
    walls = [rep["wall_s"] for rep in result["reps"]]
    wall = statistics.median(walls)
    raw_wall = statistics.median(rep["raw_wall_s"] for rep in result["reps"])
    speed = statistics.median(rep["speed_factor"] for rep in result["reps"])
    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "env": _environment(),
        "reps": len(walls), "walls_s": walls, "raw_wall_s": raw_wall, "speed_factor": speed,
        "attempted": score["attempted"],
        "failed": score["failed"], "messages": score["messages"][:20],
    }
    correct = score["failed"] == 0
    if not trace:
        setup, summary["raw_setup_s"] = _setup_seconds(plan["models"])
        metrics = {
            "wall_s": wall,
            "items_per_s": plan["items"] / wall,
            "setup_s": setup,
            "peak_rss_mb": result["peak_rss_mb"],
            "out_mb": statistics.median(score["out_bytes"]) / 1e6,
        }
        units = {k: v[0] for k, v in catalog.END_TO_END.items()}
    else:
        runs = _traced(name, seed, workdir, seconds, deadline)
        per_run, repeats = [], []
        for tresult, tscore in runs:
            summary["attempted"] += tscore["attempted"]
            summary["failed"] += tscore["failed"]
            summary["messages"] += tscore["messages"][:5]
            correct = correct and tscore["failed"] == 0
            trace_info = tresult["trace"]
            traced = tresult["reps"][0]
            extra = {
                "imports": tresult["imports"],
                "rows_out": tscore["rows_out"][0],
                "wall_s": traced["raw_wall_s"],
                "untraced_wall_s": raw_wall,
                "overhead_ratio": traced["wall_s"] / wall,
                "accounted_frac": sum(trace_info["self_times"].values()) / traced["raw_wall_s"],
                "spans": trace_info["spans"],
                "speed_factor": speed,
            }
            repeats.append(_repeatable(tresult, tscore))
            per_run.append((extra, trace_info))
        same = repeats[0] == repeats[1]
        record = workdir.parent / "counts" / f"{name}-{seed}-{_fingerprint()}.json"
        if record.exists():
            same = same and json.loads(record.read_text()) == repeats[0]
        else:
            record.parent.mkdir(exist_ok=True)
            record.write_text(json.dumps(repeats[0]))
        if not same:
            correct = False
            summary["messages"].append(f"computed counts did not repeat: {repeats}")
        layer = []
        for extra, info in per_run:
            extra["counts_repeat"] = 1 if same else 0
            layer.append(catalog.layer_metrics(info["self_times"], info["calls"],
                                               info["counts"], extra))
        metrics = {k: statistics.mean(m[k] for m in layer) for k in catalog.PER_LAYER}
        units = {k: v["unit"] for k, v in catalog.PER_LAYER.items()}
        summary["repeatable_counts"] = repeats[0]
    summary["correct"] = correct
    summary["metrics"] = metrics
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1))
    return {"summary": summary, "units": units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    s = out["summary"]
    print(f"workload {s['workload']} seed {s['seed']} trace {s['trace']}: "
          f"{s['reps']} repetitions, walls {', '.join(f'{w:.3f}' for w in s['walls_s'])} s "
          f"at reference speed; raw median {s['raw_wall_s']:.3f} s, "
          f"host speed factor {s['speed_factor']:.3f}")
    print("env " + json.dumps(s["env"], sort_keys=True))
    for msg in s["messages"]:
        print(f"failed: {msg}")
    print(f"  {'error_frac':<34} {s['failed'] / s['attempted']:.6g} "
          f"({s['failed']} of {s['attempted']} operations)")
    for k, v in s["metrics"].items():
        print(f"  {k:<34} {v:.6g} {out['units'][k]}")
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
