"""A fixed ruler for the host's CPU speed, so timings can be taken at a reference speed.

On a virtual machine whose cores are shared with other tenants, the speed
at which one process executes can swing by 1.7x over seconds to minutes
(seen on a 2-vCPU KVM guest). A raw wall time then says more about the
neighbours than about the program. The ruler is a fixed piece of work built only from
numpy and the standard library (never from the program under test) whose
instruction mix resembles the workloads': small-array numpy calls, 2x2
eigendecompositions, seeded generator construction, a scalar three-term
recurrence, float formatting and hashing. Timing it repeatedly while the
program runs measures how fast the host is at that moment.

``SpeedProbe`` interrupts the process every PROBE_INTERVAL_S with SIGALRM
and runs the ruler once in the handler. The program's time is the elapsed
time minus the time spent in probes; ``normalize`` rescales it by
REFERENCE_S over the mean probe time, giving the seconds the work would
take on a host where one ruler pass takes REFERENCE_S. A change that makes
the program faster lowers the normalized time in proportion, because the
ruler does not run program code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import signal
import time

import numpy as np

# Roughly the median time of one ruler pass on a 2-vCPU Xeon (Sapphire
# Rapids) KVM guest with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.0035
PROBE_INTERVAL_S = 0.05
_B = np.array([[2.0, 0.3], [0.3, 1.0]])


def ruler() -> float:
    """The fixed unit of work; returns a value so nothing is optimized away."""
    acc = 0.0
    buf = io.StringIO()
    writer = csv.writer(buf)
    for k in range(40):
        rng = np.random.default_rng(np.random.SeedSequence(k, spawn_key=(1, k)))
        v = rng.standard_normal(2)
        w, vec = np.linalg.eigh(0.5 * (_B + _B.T))
        root = (vec * np.sqrt(np.clip(w, 0.0, None))) @ vec.T
        x = np.asarray(0.3 + 0.01 * k)
        p_prev, p = np.ones_like(x), x
        for j in range(2, 12):
            p_prev, p = p, ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j
        acc += float(root @ v @ v) + float(p)
        writer.writerow([k, repr(acc), repr(float(v[0]))])
    hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return acc


def burst(passes: int = 20) -> float:
    """Mean seconds per ruler pass over a short burst of passes."""
    t = time.perf_counter()
    for _ in range(passes):
        ruler()
    return (time.perf_counter() - t) / passes


def normalize(elapsed: float, probe_mean: float) -> float:
    """Seconds at the reference speed for `elapsed` seconds of work."""
    return elapsed * REFERENCE_S / probe_mean


class SpeedProbe:
    """Runs the ruler on a timer while the block executes (main thread only)."""

    def __init__(self):
        self.probes: list[float] = []
        self._inside = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t = time.perf_counter()
        ruler()
        self.probes.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._inside = sum(self.probes)
        if not self.probes:  # the block was shorter than one interval
            self._handler(None, None)
        return False

    @property
    def work_s(self) -> float:
        """Raw seconds of the block, without the time spent in probes."""
        return self.elapsed - self._inside

    @property
    def speed_factor(self) -> float:
        """Mean probe time over REFERENCE_S: above 1 means a slower host."""
        return (sum(self.probes) / len(self.probes)) / REFERENCE_S

    @property
    def normalized_s(self) -> float:
        return self.work_s / self.speed_factor
