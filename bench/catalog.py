"""Metric catalogue: names, units, directions, layers, and what each should move.

END_TO_END metrics are measured with tracing off; PER_LAYER metrics come
from the traced run. Every per-layer entry names the end-to-end metrics and
workloads it is expected to move ("moves") or leave unchanged ("keeps"),
so a later change can state its claim as ``<metric>`` on ``<workload>``.
BENCHMARK.json at the repository root lists the same names and units.
"""

from __future__ import annotations

WORKLOADS = {
    "field_map": (
        "CLI simulate sphere:2 m=2 N=30 on fibonacci:30000, then projH:8 m=2 N=30 on "
        "random:10000; point geometry, a many-abscissa degree matrix and CSV plus sidecar "
        "output dominate"
    ),
    "ensemble": (
        "2 x 1,000 library replicates (spatial m=2 6 points trunc 2; VectorMA1 times 0,1,2) "
        "and empirical_cov; per-call validation, substreams, matrix roots and hashing dominate"
    ),
    "cov_table": (
        "projC:4 exponential model m=3 N=60: CLI validate on 41 lags, eval-cov 60 distances "
        "x 9 lags, recover_coefficients order 61; high degree at few abscissae, no points"
    ),
}

# name: (unit, better, bound). Times are seconds at the ruler's reference
# CPU speed (see ruler.py). Even so, the median over ten seeds still spread
# by up to 12% (IQR/median) on the shared 2-vCPU host the benchmark was
# defined on, so the time bounds are the largest allowed.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "out_mb": ("MB", "lower", 0.1),
}

ALL = tuple(WORKLOADS)


def _m(unit, better, source, moves=(), keeps=()):
    return {"unit": unit, "better": better, "source": source,
            "moves": list(moves), "keeps": list(keeps)}


def _self(*names):
    return ("self", names)


def _calls(*names):
    return ("calls", names)


def _count(key):
    return ("count", key)


_JACOBI_EVAL = ("jacobi.jacobi_eval", "jacobi.jacobi_normalized", "jacobi.jacobi_at_one",
                "jacobi.jacobi_norm_constant", "jacobi.weight_total_mass")
_VALIDATE = ("spectral.validate_spatial", "spectral.validate_spatiotemporal")
_EVAL_COV = ("spectral.eval_cov", "spectral.eval_cov_symmetrized")
_SIMULATE = ("simulate.simulate_spatial", "simulate.simulate_spatiotemporal")
_JAC_MOVES = dict(moves=[("wall_s", "cov_table"), ("wall_s", "field_map")],
                  keeps=[("wall_s", "ensemble")])
_SPACES_MOVES = dict(moves=[("wall_s", "field_map"), ("peak_rss_mb", "field_map")],
                     keeps=[("wall_s", "cov_table")])
_SPECTRAL_MOVES = dict(moves=[("wall_s", "ensemble"), ("wall_s", "cov_table")],
                       keeps=[("wall_s", "field_map")])
_ROOTS_MOVES = dict(moves=[("wall_s", "ensemble")])
_SAVE_MOVES = dict(moves=[("wall_s", "field_map"), ("out_mb", "field_map")])
_VERIFY_MOVES = dict(moves=[("wall_s", "ensemble")])
_MODELIO_MOVES = dict(moves=[("wall_s", "ensemble")] + [("setup_s", w) for w in ALL])
_CLI_MOVES = dict(moves=[("wall_s", "field_map"), ("wall_s", "cov_table")])
_IMPORT_MOVES = dict(moves=[("setup_s", w) for w in ALL])

PER_LAYER = {
    "jacobi.eval_s": _m("s", "lower", _self(*_JACOBI_EVAL), **_JAC_MOVES),
    "jacobi.eval_calls": _m("count", "lower", _calls("jacobi.jacobi_eval"), **_JAC_MOVES),
    "jacobi.recurrence_steps": _m("count", "lower", _count("jacobi.recurrence_steps"),
                                  **_JAC_MOVES),
    "jacobi.step_useful_frac": _m("ratio", "higher", ("useful_frac",), **_JAC_MOVES),
    "jacobi.gauss_jacobi_s": _m("s", "lower", _self("jacobi.gauss_jacobi"), **_JAC_MOVES),
    "spaces.make_point_s": _m("s", "lower", _self("spaces.make_point"), **_SPACES_MOVES),
    "spaces.make_point_calls": _m("count", "lower", _calls("spaces.make_point"),
                                  **_SPACES_MOVES),
    "spaces.cos_distance_s": _m("s", "lower", _self("spaces.cos_distance"), **_SPACES_MOVES),
    "spaces.cos_distance_calls": _m("count", "lower", _calls("spaces.cos_distance"),
                                    **_SPACES_MOVES),
    "spaces.sample_uniform_s": _m("s", "lower",
                                  _self("spaces.sample_uniform", "spaces.sample_uniform_batch"),
                                  **_SPACES_MOVES),
    "spaces.sample_uniform_calls": _m("count", "lower", _calls("spaces.sample_uniform"),
                                      **_SPACES_MOVES),
    "spaces.point_objects": _m("count", "lower", _count("spaces.point_objects"),
                               **_SPACES_MOVES),
    "spectral.validate_s": _m("s", "lower", _self(*_VALIDATE), **_SPECTRAL_MOVES),
    "spectral.validate_calls": _m("count", "lower", _calls(*_VALIDATE), **_SPECTRAL_MOVES),
    "spectral.validate_distinct_frac": _m("ratio", "higher", ("distinct_frac",),
                                          **_SPECTRAL_MOVES),
    "spectral.coeff_at_calls": _m("count", "lower", _count("spectral.coeff_at_calls"),
                                  **_SPECTRAL_MOVES),
    "spectral.eval_cov_s": _m("s", "lower", _self(*_EVAL_COV), **_SPECTRAL_MOVES),
    "spectral.eval_cov_calls": _m("count", "lower", _calls(*_EVAL_COV), **_SPECTRAL_MOVES),
    "spectral.recover_s": _m("s", "lower", _self("spectral.recover_coefficients"),
                             **_SPECTRAL_MOVES),
    "spectral.truncation_bound_s": _m("s", "lower", _self("spectral.truncation_bound"),
                                      **_SPECTRAL_MOVES),
    "simulate.simulate_s": _m("s", "lower", _self(*_SIMULATE), **_ROOTS_MOVES),
    "simulate.simulate_calls": _m("count", "lower", _calls(*_SIMULATE), **_ROOTS_MOVES),
    "simulate.matrix_sqrt_s": _m("s", "lower", _self("simulate.matrix_sqrt"), **_ROOTS_MOVES),
    "simulate.matrix_sqrt_calls": _m("count", "lower", _calls("simulate.matrix_sqrt"),
                                     **_ROOTS_MOVES),
    "simulate.substream_s": _m("s", "lower", _self("simulate.substream"), **_ROOTS_MOVES),
    "simulate.substream_calls": _m("count", "lower", _calls("simulate.substream"),
                                   **_ROOTS_MOVES),
    "simulate.save_realization_s": _m("s", "lower", _self("simulate.save_realization"),
                                      **_SAVE_MOVES),
    "simulate.csv_bytes": _m("bytes", "lower", _count("simulate.csv_bytes"), **_SAVE_MOVES),
    "simulate.meta_bytes": _m("bytes", "lower", _count("simulate.meta_bytes"), **_SAVE_MOVES),
    "verify.empirical_cov_s": _m("s", "lower", _self("verify.empirical_cov"), **_VERIFY_MOVES),
    "verify.replicate_seeds_s": _m("s", "lower", _self("verify.replicate_seeds"),
                                   **_VERIFY_MOVES),
    "modelio.load_model_s": _m("s", "lower",
                               _self("modelio.load_model", "modelio.model_from_dict"),
                               **_MODELIO_MOVES),
    "modelio.model_hash_s": _m("s", "lower", _self("modelio.model_hash", "modelio.model_to_dict"),
                               **_MODELIO_MOVES),
    "modelio.model_hash_calls": _m("count", "lower", _calls("modelio.model_hash"),
                                   **_MODELIO_MOVES),
    "cli.resolve_points_s": _m("s", "lower", _self("cli.resolve_points"), **_CLI_MOVES),
    "cli.self_s": _m("s", "lower", ("self_prefix", "cli.cmd_"), **_CLI_MOVES),
    "cli.rows_out": _m("count", "lower", ("rows_out",), **_CLI_MOVES),
    "import.scipy_s": _m("s", "lower", ("import", "scipy"), **_IMPORT_MOVES),
    "import.isofield_s": _m("s", "lower", ("import", "isofield"), **_IMPORT_MOVES),
    "import.numpy_s": _m("s", "lower", ("import", "numpy"), **_IMPORT_MOVES),
}

# Self time of every module, and of the benchmark's own code inside the
# traced body: together they account for the traced wall time.
MODULES = ("jacobi", "spaces", "quaternions", "spectral", "simulate", "verify", "modelio",
           "cli")
for _mod in MODULES:
    PER_LAYER[f"layer.{_mod}_s"] = _m("s", "lower", ("self_prefix", f"{_mod}."))
PER_LAYER["layer.bench_s"] = _m("s", "lower", _self("bench.body"))
# Per-layer and trace.* seconds are raw seconds of the traced run; the host
# speed factor (mean ruler pass over its reference time, from the untraced
# repetitions) relates them to the end-to-end figures. The overhead ratio
# compares traced and untraced bodies at the reference speed.
PER_LAYER["host.speed_factor"] = _m("ratio", "lower", ("trace", "speed_factor"))
PER_LAYER["trace.wall_s"] = _m("s", "lower", ("trace", "wall_s"))
PER_LAYER["trace.untraced_wall_s"] = _m("s", "lower", ("trace", "untraced_wall_s"))
PER_LAYER["trace.overhead_ratio"] = _m("ratio", "lower", ("trace", "overhead_ratio"))
PER_LAYER["trace.accounted_frac"] = _m("ratio", "higher", ("trace", "accounted_frac"))
PER_LAYER["trace.spans"] = _m("count", "lower", ("trace", "spans"))
PER_LAYER["trace.counts_repeat"] = _m("bool", "higher", ("trace", "counts_repeat"))

# Counts that must repeat exactly between two runs with the same seed.
REPEATABLE = ("jacobi.recurrence_steps", "spectral.coeff_at_calls", "simulate.substream_calls",
              "spaces.point_objects", "simulate.csv_bytes", "out_mb")


def layer_metrics(self_times: dict, calls: dict, counts: dict, extra: dict) -> dict:
    """Evaluate every PER_LAYER entry for one traced body.

    `extra` carries what the tracer cannot see: import times, rows written
    by the CLI, and the trace.* figures.
    """
    out = {}
    for name, spec in PER_LAYER.items():
        kind, *arg = spec["source"]
        if kind == "self":
            value = sum(self_times.get(n, 0.0) for n in arg[0])
        elif kind == "calls":
            value = sum(calls.get(n, 0) for n in arg[0])
        elif kind == "count":
            value = counts.get(arg[0], 0)
        elif kind == "self_prefix":
            value = sum(t for n, t in self_times.items() if n.startswith(arg[0]))
        elif kind == "useful_frac":
            steps = counts.get("jacobi.recurrence_steps", 0)
            value = counts.get("jacobi.useful_steps", 0) / steps if steps else 1.0
        elif kind == "distinct_frac":
            n_calls = sum(calls.get(n, 0) for n in _VALIDATE)
            value = counts.get("spectral.distinct_models", 0) / n_calls if n_calls else 1.0
        elif kind == "rows_out":
            value = extra["rows_out"]
        elif kind == "import":
            value = extra["imports"][arg[0]]
        else:
            value = extra[arg[0]]
        out[name] = value
    return out
