"""Every argument an argument rule gates, at every public entry point, against hostile values.

Each call either returns what the same call returns on the value's plain int or float twin
(2 for 2.0, np.int64(2) and np.array(2); the list [2] for np.array([2])), or raises an
IsoFieldError whose message names the argument; no call warns. The table is fixed, so the
test is deterministic. It runs in a child process under a 3 GB address-space limit, so that
a call that allocates without bound fails this test instead of exhausting the machine:

    PYTHONPATH=src python tests/test_gates.py

prints the failures of the table as JSON (an empty list when every call passes).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ADDRESS_SPACE = 3 * 2**30

# the hostile values: bools, 2.0, 2.5, +-1, +-10**400, nan, inf, "2", b"2", None, 1+0j,
# numpy scalars, 0-d, 1-d and object arrays; 2**62, past any array numpy can allocate, and
# +-10**5000, past the 4,300 digits Python prints
HOSTILE = [True, False, np.True_, 2.0, 2.5, 1, -1, 10**400, -10**400, math.nan, math.inf,
           -math.inf, "2", b"2", None, 1 + 0j, np.int64(2), np.float64(2.0), np.float64(2.5),
           np.array(2), np.array(2.5), np.array([2]), np.array(2, dtype=object),
           np.array([2], dtype=object), 2**62, 10**5000, -10**5000]


# arguments whose documented default is None, which they therefore accept
NONE_IS_DEFAULT = {"SeriesModel.validate probe_lags", "eval_cov trunc", "simulate_spatial trunc"}


def twin(value):
    """The plain int or float (or list of them) that value stands for; None if there is none."""
    if isinstance(value, np.ndarray):
        if value.ndim > 1:
            return None
        if value.ndim == 1:
            items = [twin(v) for v in value.tolist()]
            return None if None in items else items
        value = value.item()
    elif isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, float)):
        return int(value) if isinstance(value, bool) else value
    return None


def same(a, b) -> bool:
    """Equal results: same types, and equal values, arrays, fields and items (nan equals nan)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return a == b or math.isnan(a) and math.isnan(b)
    return a is b or a == b


def cases() -> list[tuple[str, tuple[str, ...], object]]:
    """(entry point and argument, the words one of which the error names, call of one value)."""
    import isofield as iso
    from isofield import SpaceFamily

    s2 = iso.parse_space("sphere:2")
    geom = s2.geom
    eye = np.eye(2)
    spatial = iso.SeriesModel(s2, 2, [eye, 0.5 * eye, 0.25 * eye])
    scalar = [np.eye(1), 0.5 * np.eye(1)]
    expo = iso.SeriesModel(s2, 1, scalar, iso.SeparableScalar("exponential", 1.0))
    ma1 = iso.SeriesModel(s2, 1, scalar, iso.VectorMA1([[0.5]]))
    x1, x2 = points = iso.sample_uniform_batch(s2, 2, np.random.default_rng(0))
    real = iso.simulate_spatial(spatial, points, seed=1)
    ensemble = [iso.simulate_spatiotemporal(ma1, points, [0, 1, 2], seed=s) for s in (1, 2, 3)]

    def cov(rho):
        return math.cos(rho)

    def draws(rng):
        return rng.integers(0, 2**62, 4)

    lag, lags = ("lag",), ("lag", "probe_lags", "times", "t")
    return [
        # jacobi
        ("JacobiParams alpha", ("alpha",), lambda v: iso.JacobiParams(v, 0.0)),
        ("JacobiParams beta", ("beta",), lambda v: iso.JacobiParams(0.0, v)),
        ("jacobi_all N", ("degree",), lambda v: iso.jacobi_all(v, geom, 0.5)),
        ("jacobi_eval n", ("degree",), lambda v: iso.jacobi_eval(v, geom, 0.5)),
        ("jacobi_at_one n", ("degree",), lambda v: iso.jacobi_at_one(v, geom)),
        ("jacobi_normalized n", ("degree",), lambda v: iso.jacobi_normalized(v, geom, 0.5)),
        ("jacobi_norm_constant j", ("degree",), lambda v: iso.jacobi_norm_constant(v, geom)),
        ("gauss_jacobi order", ("quadrature order",), lambda v: iso.gauss_jacobi(v, geom)),
        # spaces
        ("make_space d", ("dimension", "sphere requires"),
         lambda v: iso.make_space(SpaceFamily.SPHERE, v)),
        ("parse_space label", ("space designation",), lambda v: iso.parse_space(v)),
        ("sphere_volume d", ("dimension",), lambda v: iso.sphere_volume(v)),
        ("a_constant n", ("degree",), lambda v: iso.a_constant(s2, v)),
        ("dim_eigenspace n", ("degree",), lambda v: iso.dim_eigenspace(s2, v)),
        ("laplace_eigenvalue n", ("degree",), lambda v: iso.laplace_eigenvalue(s2, v)),
        ("sample_uniform_batch k", ("point count",),
         lambda v: iso.sample_uniform_batch(s2, v, np.random.default_rng(1))),
        # spectral
        ("TailEnvelope c", ("envelope scale",), lambda v: iso.TailEnvelope(v, 0.5)),
        ("TailEnvelope r", ("envelope ratio",), lambda v: iso.TailEnvelope(1.0, v)),
        ("SeparableScalar ar1 param", ("ar1 coefficient",),
         lambda v: iso.SeparableScalar("ar1", v)),
        ("SeparableScalar exponential param", ("exponential rate",),
         lambda v: iso.SeparableScalar("exponential", v)),
        ("SeriesModel m", ("m must be", "coefficient 0 has shape"),
         lambda v: iso.SeriesModel(s2, v, [eye])),
        ("SeriesModel.coeff_at n", ("degree",), lambda v: spatial.coeff_at(v)),
        ("SeriesModel.coeff_at t", lag, lambda v: expo.coeff_at(1, v)),
        ("SeriesModel.coeff_at t (integer lags)", lag, lambda v: ma1.coeff_at(1, v)),
        ("SeriesModel.validate probe_lags", lags, lambda v: expo.validate(v)),
        ("SeriesModel.validate probe lag", lag, lambda v: expo.validate([0.0, v])),
        ("SeriesModel.validate probe lag (lag 0 only)", lag,
         lambda v: spatial.validate([0.0, v])),
        ("validate_spatiotemporal probe_lags", lags,
         lambda v: iso.validate_spatiotemporal(ma1, v)),
        ("validate_spatiotemporal probe lag", lag,
         lambda v: iso.validate_spatiotemporal(ma1, [0.0, v])),
        ("eval_cov t", lags, lambda v: iso.eval_cov(expo, 0.5, v)),
        ("eval_cov t (a list)", lag, lambda v: iso.eval_cov(ma1, 0.5, [0.0, v])),
        ("eval_cov trunc", ("truncation degree",), lambda v: iso.eval_cov(spatial, 0.5, 0.0, v)),
        ("eval_cov rho", ("rho",), lambda v: iso.eval_cov(expo, v)),
        ("truncation_bound N", ("truncation degree",), lambda v: iso.truncation_bound(spatial, v)),
        ("angular_power_spectrum n", ("degree",),
         lambda v: iso.angular_power_spectrum(spatial, v)),
        ("recover_coefficients m", ("m must be", "covariance callable"),
         lambda v: iso.recover_coefficients(cov, s2, v, 1, 3)),
        ("recover_coefficients N", ("max degree",),
         lambda v: iso.recover_coefficients(cov, s2, 1, v, 4)),
        ("recover_coefficients order", ("quadrature order",),
         lambda v: iso.recover_coefficients(cov, s2, 1, 1, v)),
        # simulate
        ("substream seed", ("seed",), lambda v: draws(iso.substream(v))),
        ("substream key", ("spawn key",), lambda v: draws(iso.substream(7, v))),
        ("simulate_spatial trunc", ("truncation degree",),
         lambda v: iso.simulate_spatial(spatial, points, v, seed=1)),
        ("simulate_spatial seed", ("seed",),
         lambda v: iso.simulate_spatial(spatial, points, seed=v)),
        ("simulate_spatial points", ("point",), lambda v: iso.simulate_spatial(spatial, v, seed=1)),
        ("simulate_spatiotemporal times", lags,
         lambda v: iso.simulate_spatiotemporal(expo, points, v, seed=1)),
        ("simulate_spatiotemporal time", lag,
         lambda v: iso.simulate_spatiotemporal(ma1, points, [v], seed=1)),
        ("simulate_spatiotemporal seed", ("seed",),
         lambda v: iso.simulate_spatiotemporal(ma1, points, [0, 1], seed=v)),
        # verify
        ("replicate_seeds master_seed", ("master seed",), lambda v: iso.replicate_seeds(v, 3)),
        ("replicate_seeds count", ("replicate count",), lambda v: iso.replicate_seeds(5, v)),
        ("mc_funk_hecke i", ("degree",),
         lambda v: iso.mc_funk_hecke(s2, v, 1, x1, x2, replicates=40)),
        ("mc_funk_hecke j", ("degree",),
         lambda v: iso.mc_funk_hecke(s2, 1, v, x1, x2, replicates=40)),
        ("mc_funk_hecke replicates", ("replicates",),
         lambda v: iso.mc_funk_hecke(s2, 1, 1, x1, x2, replicates=v)),
        ("mc_funk_hecke seed", ("seed",),
         lambda v: iso.mc_funk_hecke(s2, 1, 1, x1, x2, replicates=40, seed=v)),
        ("mc_zonal_covariance n", ("degree",),
         lambda v: iso.mc_zonal_covariance(s2, v, x1, x2, replicates=40)),
        ("mc_zonal_covariance replicates", ("replicates",),
         lambda v: iso.mc_zonal_covariance(s2, 1, x1, x2, replicates=v)),
        ("mc_zonal_covariance seed", ("seed",),
         lambda v: iso.mc_zonal_covariance(s2, 1, x1, x2, replicates=40, seed=v)),
        ("mc_recover_vn n", ("degree",),
         lambda v: iso.mc_recover_vn(real, v, replicates_for_integral=40)),
        ("mc_recover_vn replicates_for_integral", ("replicates_for_integral",),
         lambda v: iso.mc_recover_vn(real, 1, replicates_for_integral=v)),
        ("mc_recover_vn seed", ("seed",),
         lambda v: iso.mc_recover_vn(real, 1, replicates_for_integral=40, seed=v)),
        ("empirical_cov point_pair", ("point pair",),
         lambda v: iso.empirical_cov(ensemble, (v, 0), 0.0)),
        ("empirical_cov lag", lag, lambda v: iso.empirical_cov(ensemble, (0, 1), v)),
        ("empirical_cov realizations", ("realizations",),
         lambda v: iso.empirical_cov(v, (0, 0), 0.0)),
    ]


def _outcome(call, value):
    """("ok", result) or ("error", exception) of call(value), and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ("ok", call(value))
        except Exception as exc:  # every exception is judged by run_table
            outcome = ("error", exc)
    return outcome, [str(w.message) for w in caught]


def show(value) -> str:
    """value for a failure line, an int too long to print by its size."""
    if isinstance(value, int) and value.bit_length() > 1000:
        return f"<{'-' if value < 0 else ''}int of {value.bit_length()} bits>"
    return f"{value!r:.40}"


def run_table() -> list[str]:
    """One line per call of the table that neither matches its twin nor names its argument."""
    from isofield import IsoFieldError

    failures = []
    for label, names, call in cases():
        for value in HOSTILE:
            if value is None and label in NONE_IS_DEFAULT:
                continue
            where = f"{label} = {show(value)}"
            (kind, got), warned = _outcome(call, value)
            if warned:
                failures.append(f"{where}: warned {warned[0]!r:.200}")
            elif kind == "error":
                if not isinstance(got, IsoFieldError):
                    failures.append(f"{where}: raised {type(got).__name__}: {got!s:.200}")
                elif not any(name in str(got) for name in names):
                    failures.append(f"{where}: {type(got).__name__} names none of {names}: "
                                    f"{got!s:.200}")
            elif twin(value) is None:
                failures.append(f"{where}: accepted, but it stands for no number")
            else:
                (twin_kind, want), _ = _outcome(call, twin(value))
                if twin_kind != "ok" or not same(got, want):
                    failures.append(f"{where}: its twin {show(twin(value))} gave "
                                    f"{'a different result' if twin_kind == 'ok' else want!r}")
    return failures


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_hostile_arguments_end_in_their_twins_result_or_a_named_error():
    import isofield

    src = str(Path(isofield.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                           preexec_fn=_limit_address_space, timeout=600)
    assert child.returncode == 0, child.stderr[-3000:]
    failures = json.loads(child.stdout)
    assert not failures, f"{len(failures)} calls:\n" + "\n".join(failures)


if __name__ == "__main__":
    print(json.dumps(run_table()))
