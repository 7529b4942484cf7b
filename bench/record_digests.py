"""Record the field_map values-CSV digests that the benchmark checks against.

    python3 bench/record_digests.py

For each of the DIGEST_VARIANTS input variants, generates the field_map
inputs, runs each CLI ``simulate`` invocation of the workload in its own
single-threaded interpreter, and writes the SHA-256 of every values CSV to
bench/digests.json. Run it only to re-baseline after a deliberate change to
the output bytes; the benchmark reports any other difference as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def _variant(v: int) -> dict:
    workdir = run.ROOT / ".bench_run" / "digests" / str(v)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.field_map_generate(v, workdir)
    out = {}
    for spec in plan["runs"]:
        argv = workloads.fill_rep(spec["argv"], workdir)
        subprocess.run([sys.executable, "-m", "isofield.cli", *argv], env=run.child_env(),
                       check=True, capture_output=True, timeout=300)
        out[spec["label"]] = workloads.file_sha256(workdir / f"{spec['label']}.csv")
    shutil.rmtree(workdir)
    return out


def main() -> int:
    variants = range(workloads.DIGEST_VARIANTS)
    with ThreadPoolExecutor(max_workers=2) as pool:
        digests = dict(zip((str(v) for v in variants), pool.map(_variant, variants)))
    path = workloads.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} variants to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
