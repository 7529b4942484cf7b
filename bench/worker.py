"""One workload process: imports, then the timed body, repeated or traced.

Started by run.py as a fresh interpreter, with the BLAS and OpenMP thread
variables already set to 1 and the repository's ``src`` on PYTHONPATH. It
reads the plan that run.py generated from the seed, runs the body and
writes a JSON result; it checks nothing itself, so checking adds nothing to
its time or peak memory.

    python3 bench/worker.py PLAN RESULT --seconds S [--trace]

Untraced, the body repeats until S seconds have passed (at least MIN_REPS
times), each time under a ruler.SpeedProbe, and its wall time is reported
at the ruler's reference speed. Traced, the body runs once with every
public isofield function wrapped by the span recorder, between two ruler
bursts (probing inside the body would add to the spans' self times).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

MIN_REPS = 5


def _timed_imports() -> dict:
    """Import cost of each dependency layer, in load order, in this fresh process."""
    out = {}
    for key, module in (("numpy", "numpy"), ("scipy", "scipy.linalg"), ("isofield", "isofield")):
        t = time.perf_counter()
        importlib.import_module(module)
        if key == "isofield":
            importlib.import_module("isofield.cli")
        out[key] = time.perf_counter() - t
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    imports = _timed_imports()
    import isofield

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ruler
    import workloads

    plan = json.loads(Path(args.plan).read_text())
    body = workloads.WORKLOADS[plan["workload"]][1]
    workdir = Path(args.plan).parent
    result = {"imports": imports, "reps": []}

    if args.trace:
        import tracer

        rec = tracer.Recorder()
        rec.install(isofield)
        rep_dir = workdir / "traced"
        rep_dir.mkdir(exist_ok=True)
        before = ruler.burst()
        record, raw = rec.run(body, plan, rep_dir, isofield)
        factor = (before + ruler.burst()) / 2.0 / ruler.REFERENCE_S
        rec.save(workdir / "spans.npz")
        result["reps"].append({"dir": str(rep_dir), "wall_s": raw / factor, "raw_wall_s": raw,
                               "speed_factor": factor, "record": record})
        result["trace"] = {
            "self_times": rec.self_times(),
            "calls": dict(rec.calls),
            "counts": rec.derived_counts(),
            "spans": len(rec.start),
        }
    else:
        start = time.perf_counter()
        while len(result["reps"]) < MIN_REPS or time.perf_counter() - start < args.seconds:
            rep_dir = workdir / f"rep{len(result['reps'])}"
            rep_dir.mkdir(exist_ok=True)
            with ruler.SpeedProbe() as probe:
                record = body(plan, rep_dir, isofield)
            result["reps"].append({"dir": str(rep_dir), "wall_s": probe.normalized_s,
                                   "raw_wall_s": probe.work_s,
                                   "speed_factor": probe.speed_factor, "record": record})

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
