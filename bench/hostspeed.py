"""Host-speed normalization of timed phases on a shared core.

On a small share of a shared host a core runs the same code up to about twice
as slowly while a neighbour is busy, in spells from a fraction of a second to
minutes. Host seconds then measure the neighbour as much as the program.

``HostClock`` therefore samples the core's speed while a phase runs: a timer
signal interrupts the phase at a fixed interval and runs a fixed kernel twice,
timing the second pass. The kernels use no code of the package, so no change
to the package changes them. The samples' time is taken out of the phase, and
the phase's remaining time is scaled by ``reference time / mean kernel
time``: the result is the phase's time on a core that runs the kernel in its
reference time, that is, in seconds at a fixed host speed. A neighbour slows
interpreted code and BLAS code differently, so there is one kernel of each,
and a phase is sampled with the kind it spends its time in.

Set-up, a fresh process importing modules and reading files, is slowed in yet
another way, and no signal can sample a process that has not started. Each
set-up is therefore paired with a fresh interpreter that only imports numpy,
run right after it, and scaled by ``REFERENCE_IMPORT_S / that import's time``.

The reference times are the kernels' and the import's times on an uncontended
core of the host the benchmark was written on (a 2-vCPU Intel Xeon VM at
2.1 GHz), so there normalized and host seconds read about the same.
"""
from __future__ import annotations

import dataclasses
import signal
import subprocess
import sys
import time
from collections.abc import Callable

REFERENCE_IMPORT_S = 0.065
IMPORT_PROBE = ("import time; start = time.perf_counter(); import numpy; "
                "print(repr(time.perf_counter() - start))")


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def interpreter_kernel() -> float:
    """A fixed mix of object construction, attribute, dict and float work."""
    table: dict[int, _Point] = {}
    acc = 0.0
    for i in range(1000):
        p = _Point(i * 0.5, (i % 7) - 3.0)
        table[i & 31] = p
        acc += p.x * p.y + abs(p.y) ** 0.5
    return acc + len(table)


class BlasKernel:
    """Forward and backward pass of a small tanh layer over a fixed batch."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.x = rng.standard_normal((1024, 40))
        self.w = rng.standard_normal((128, 40)) * 0.1
        self.v = rng.standard_normal((2, 128)) * 0.1

    def __call__(self) -> float:
        np = self.np
        z = np.tanh(self.x @ self.w.T)
        g = np.sign(z @ self.v.T) / len(self.x)
        dz = (g @ self.v) * (1.0 - z * z)
        return float((dz.T @ self.x).sum())


@dataclasses.dataclass(frozen=True)
class Kernel:
    """A speed kernel: its factory, its reference time and the seconds between samples."""

    make: Callable[[], Callable[[], float]]
    reference_s: float
    interval: float


#: By where a phase spends its time.
KERNELS = {
    "interpreter": Kernel(lambda: interpreter_kernel, 0.00040, 0.025),
    "blas": Kernel(BlasKernel, 0.00165, 0.1),
}


class HostClock:
    """Times phases in seconds at the reference host speed.

    Use as a context manager around each phase; ``host_s`` is the last
    phase's host time with the samples taken out and ``normalized_s`` the same
    time at the reference speed of ``kernel``, a name in ``KERNELS``. ``now``
    is a clock for spans inside the phases. Only the main thread can take the
    timer signal, and only one clock may run at a time.
    """

    def __init__(self, kernel: str = "interpreter", interval: float | None = None):
        spec = KERNELS[kernel]
        self.kernel = spec.make()
        self.reference_s = spec.reference_s
        self.interval = interval or spec.interval
        self.samples: list[float] = []
        self.spent = 0.0
        self.total_spent = 0.0  # in every phase this clock timed
        self.host_s = self.normalized_s = 0.0
        self._previous = None

    def now(self) -> float:
        """Host seconds with every sample so far taken out."""
        return time.perf_counter() - self.total_spent

    def _sample(self, signum, frame) -> None:
        # The first pass refills the caches the phase evicted; the second is timed.
        start = time.perf_counter()
        self.kernel()
        warm = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - start
        self.total_spent += end - start

    def __enter__(self) -> HostClock:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.host_s = elapsed - self.spent
        if not self.samples:  # a phase shorter than the interval: sample once after it
            self._sample(None, None)
        self.normalized_s = normalize(self.host_s, self.samples, self.reference_s)


def normalize(host_s: float, samples, reference_s: float) -> float:
    """``host_s`` at the reference speed, from the kernel times sampled meanwhile."""
    return host_s * reference_s * len(samples) / sum(samples)


def import_seconds() -> float:
    """Host seconds a fresh interpreter takes to import numpy."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])
