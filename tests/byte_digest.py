"""One SHA-256 over the bytes of a fixed set of in-process CLI runs.

    PYTHONPATH=src python tests/byte_digest.py [--list]

Each run's argv, exit code, stdout, stderr and every file it wrote go into
one digest, printed with the run count; two checkouts that print the same
digest wrote the same bytes. The runs:

- `simulate` of five kernels (spatial, pure_spatial, ar1, exponential, ma1)
  on sphere:1, sphere:2, projC:4 and projH:8 at m = 1, 2 and 3, on the time
  grid 0, a 40-time and a 10^4-time grid, with generated points (random:3)
  and a point file;
- `validate`, `eval-cov` and `spectrum` of every one of these models, in csv
  and in json.

The runs take place in a fresh temporary directory with relative paths, so
no machine path enters the bytes. Models and point files are built from
fixed seeds. --list prints each run's argv and exit code as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from isofield import parse_space, sample_uniform_batch
from isofield.cli import main
from isofield.spaces import points_to_reals

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


def _runs(folder: Path):
    """Write the model and point files into folder; yield the argv of every run."""
    for label in SPACES:
        space = parse_space(label)
        rows = points_to_reals(sample_uniform_batch(space, 3, np.random.default_rng(7)))
        point_file = f"{label.replace(':', '')}_points.csv"
        (folder / point_file).write_text("".join(",".join(map(repr, row)) + "\n"
                                                 for row in rows.tolist()))
        for m in (1, 2, 3):
            for kernel in KERNELS:
                model = f"{label.replace(':', '')}_m{m}_{kernel}.json"
                (folder / model).write_text(json.dumps(_model_doc(label, m, kernel)))
                for command in ("validate", "eval-cov", "spectrum"):
                    for fmt in ("csv", "json"):
                        yield [command, "--model", model, "--format", fmt, "--out", "table"]
                for grid, times in GRIDS.items():
                    for points in ("random:3", point_file):
                        yield ["simulate", "--model", model, "--points", points, "--times",
                               times, "--seed", "11", "--out", f"run_{grid}.csv"]


def digest(show: bool = False) -> tuple[str, int]:
    """The SHA-256 over every run, and the number of runs."""
    total, count = hashlib.sha256(), 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        os.chdir(folder)
        try:
            for argv in _runs(folder):
                before = set(folder.iterdir())
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                written = sorted(set(folder.iterdir()) - before)
                record = [json.dumps(argv), str(code), out.getvalue(), err.getvalue()]
                for path in written:
                    record += [path.name, hashlib.sha256(path.read_bytes()).hexdigest()]
                    path.unlink()
                total.update(json.dumps(record).encode() + b"\n")
                count += 1
                if show:
                    print(code, " ".join(a if len(a) < 60 else a[:57] + "..." for a in argv))
        finally:
            os.chdir(here)
    return total.hexdigest(), count


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--list", action="store_true", help="print every run and its exit")
    value, runs = digest(parser.parse_args().list)
    print(f"{value}  {runs} runs")
