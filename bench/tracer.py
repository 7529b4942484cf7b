"""Span recorder for the traced benchmark run.

``Recorder.install`` wraps every public function of every ``isofield``
module, and every public method of its classes, at each module attribute
the function is bound to: ``isofield.simulate.cos_distance`` and
``isofield.spaces.cos_distance`` are two bindings of one function and both
get the same wrapper, so a call is recorded whichever binding the caller
used. Private helpers are not wrapped; their time is self time of the
public function that called them.

Each call becomes a span (name, start, end, parent), kept in flat arrays in
memory and written out once, when the run ends. A span's self time is its
duration minus the durations of its child spans (calls nest, so children
never overlap). Counts are taken at the same boundaries, some of them from
the call arguments.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

ROOT = "bench.body"


class Recorder:
    """Keeps spans and counts of one traced body in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._jacobi_passes: dict = {}
        self._models_validated: set = set()
        self._model_coeff_at: set = set()

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def run(self, fn, *args):
        """Call fn inside the root span; returns (result, wall seconds)."""
        idx = self._open(self._nid(ROOT))
        try:
            result = fn(*args)
        finally:
            self._close(idx)
        return result, self.end[idx] - self.start[idx]

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans of that name."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        per_name = np.bincount(nid, weights=dur - covered, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans as arrays: names[name_id], parent index, start, end."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )

    # -- counts taken from call arguments ---------------------------------

    def _count_jacobi(self, args, kwargs):
        import numpy as np

        n = args[0] if args else kwargs["n"]
        params = args[1] if len(args) > 1 else kwargs["params"]
        x = np.asarray(args[2] if len(args) > 2 else kwargs["x"], dtype=float)
        self.counts["jacobi.recurrence_steps"] += int(n) * x.size
        key = (params.alpha, params.beta, x.shape, x.tobytes())
        self._jacobi_passes[key] = (max(self._jacobi_passes.get(key, (0,))[0], int(n)), x.size)

    def _count_validate(self, args, kwargs):
        import numpy as np

        model = args[0] if args else kwargs["model"]
        kernel = getattr(model, "kernel", None)
        key = (
            type(model).__name__,
            str(model.space),
            np.asarray(model.coeffs).tobytes(),
            repr(kernel),
            np.asarray(getattr(kernel, "phi", 0.0)).tobytes(),
            repr(model.tail),
        )
        self._models_validated.add(key)

    def _count_saved(self, result):
        csv_path, meta_path = result
        self.counts["simulate.csv_bytes"] += csv_path.stat().st_size
        self.counts["simulate.meta_bytes"] += meta_path.stat().st_size

    def derived_counts(self) -> dict:
        """Counts that need the whole run: one all-degree pass per abscissa set."""
        out = dict(self.counts)
        out["jacobi.useful_steps"] = sum(n * size for n, size in self._jacobi_passes.values())
        out["spectral.distinct_models"] = len(self._models_validated)
        out["spectral.coeff_at_calls"] = sum(self.calls[n] for n in self._model_coeff_at)
        return out

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._nid(name)
        calls, open_, close = self.calls, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def _count_points(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(*args, **kwargs):
            counts["spaces.point_objects"] += 1
            init(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap the public functions and methods of every module of `package`."""
        import sys

        prefix = package.__name__ + "."
        modules = [package] + sorted(
            (m for k, m in sys.modules.items() if k.startswith(prefix) and m is not None),
            key=lambda m: m.__name__,
        )

        def ours(obj) -> bool:
            return str(getattr(obj, "__module__", None) or "").startswith(package.__name__)

        def short(obj) -> str:
            return obj.__module__.rsplit(".", 1)[-1]

        hooks = {
            "jacobi.jacobi_eval": (self._count_jacobi, None),
            "spectral.validate_spatial": (self._count_validate, None),
            "spectral.validate_spatiotemporal": (self._count_validate, None),
            "simulate.save_realization": (None, self._count_saved),
        }
        wrappers: dict[int, object] = {}
        classes = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not ours(obj):
                    continue
                if inspect.isclass(obj):
                    classes[id(obj)] = obj
                elif inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        name = f"{short(obj)}.{obj.__qualname__}"
                        wrappers[id(obj)] = self._wrap(obj, name, *hooks.get(name, (None, None)))
                    setattr(module, attr, wrappers[id(obj)])
        for cls in classes.values():
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{short(cls)}.{cls.__qualname__}.{attr}"
                if attr == "coeff_at" and isinstance(vars(cls).get("max_degree"), property):
                    self._model_coeff_at.add(name)
                setattr(cls, attr, self._wrap(fn, name))
            if cls.__name__ == "Point":
                cls.__init__ = self._count_points(cls.__init__)
