"""Host-speed sampling, so times measured on a shared host can be compared.

On a shared VM the speed at which this process executes changes by up to
2x within a second as other tenants load the host, and process CPU time
grows with wall time: it is slower execution, not time stolen from the VM.
Raw seconds of the same code then spread 20-35% between runs, and a
deformation pass can run 20% slower for half a minute while a pure-Python
loop keeps its speed.

``SpeedSampler`` measures that speed while the program runs.  A timer
signal interrupts the process every ``INTERVAL_S`` seconds and times a
fixed calibration kernel of about 1 ms, with no symgeo code in it: an
integer loop and a rational sum (``python_kernel``) and many small-array
numpy calls (``numpy_kernel``).  Of the kernels tried, this mix tracked the
exact, Monte-Carlo and deformation workloads best; the pure-Python part
alone misses the slowdowns of numpy-call-heavy code.  The speed at a sample
is the kernel's reference time over its measured time.

``reference_seconds(start, end)`` turns an interval of measured work into
*reference seconds*: the interval's wall time, less the time the sampler
took inside it, times the mean speed over it.  That is how long the work
would take on a host that runs the kernel in its reference time (about its
typical time on a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4).  A change
to symgeo moves reference seconds as it moves wall time; a change in host
load moves them far less.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from math import gcd

#: loop lengths of the kernel's three parts, each about 0.3 ms on the
#: reference host
INT_ITERATIONS = 1_500
RATIONAL_ITERATIONS = 200
NUMPY_ITERATIONS = 60
#: the kernel's time at reference speed, without and with its numpy part
PYTHON_REFERENCE_S = 0.0007
NUMPY_REFERENCE_S = 0.0004
#: seconds between samples
INTERVAL_S = 0.04
#: a sample older than this is refreshed at an op boundary
BOUNDARY_AGE_S = 0.02
#: samples on each side of a sample whose median smooths its speed
SMOOTH = 1


class _Rational:
    """A bare rational, so the kernel does Fraction-like work (method calls,
    small objects, big-int gcd) without importing ``fractions`` ahead of
    the program."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Rational(self.num * other.den + other.num * self.den, self.den * other.den)


def python_kernel() -> tuple:
    """Interpreter-bound calibration work: an integer loop and a rational
    sum."""
    x = 1
    for i in range(INT_ITERATIONS):
        x = (x * 48271 + i) % 2147483647
    total = _Rational(0, 1)
    for i in range(1, RATIONAL_ITERATIONS):
        total = total + _Rational(1, i % 97 + 1)
    return x, total.num


def numpy_kernel(np, matrix, vector) -> float:
    """Calibration work of many small-array numpy calls, the way ffengine
    and the Monte-Carlo layers drive numpy: it slows down under host load
    that pure-Python loops barely notice."""
    v = vector
    for _ in range(NUMPY_ITERATIONS):
        w = matrix @ v
        v = v * 0.999 + float(np.abs(w).max()) * 0.001
    return float(v[0])


class SpeedSampler:
    """Samples host speed on SIGALRM while started.  Samples are (start,
    end) of each kernel run, in ``time.perf_counter`` seconds."""

    def __init__(self, with_numpy: bool = True):
        """with_numpy=False keeps numpy out of the kernel, for a process
        that must not import numpy before the program does."""
        self.reference_s = PYTHON_REFERENCE_S
        self._numpy = None
        if with_numpy:
            import numpy as np

            self._numpy = (np, np.eye(3) * 0.5, np.array([0.3, 0.5, 0.2]))
            self.reference_s += NUMPY_REFERENCE_S
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._speeds: list[float] | None = None
        self._bounds: list[float] = []

    def _sample(self, signum=None, frame=None):
        # the collector is off, so the kernel does not pay for collecting
        # the program's objects
        was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        python_kernel()
        if self._numpy is not None:
            numpy_kernel(*self._numpy)
        end = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def sample_if_stale(self):
        """Take a sample now unless one ended less than BOUNDARY_AGE_S ago.
        Called at op boundaries, outside the timed interval, so a short op
        has a sample on either side of it."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= BOUNDARY_AGE_S:
            self._sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._speeds = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def _trace(self):
        """(speeds, bounds): the speed at each sample, as the median over the
        sample and its SMOOTH neighbours on either side, and the times at
        which one sample's speed gives way to the next one's (midway between
        the two samples)."""
        if self._speeds is None:
            import statistics  # not at import: the set-up probe imports this module first

            raw = [self.reference_s / (e - s) for s, e in zip(self.starts, self.ends)]
            if not raw:
                raise RuntimeError("no speed samples were taken")
            self._speeds = [statistics.median(raw[max(0, i - SMOOTH): i + SMOOTH + 1])
                            for i in range(len(raw))]
            mids = [(s + e) / 2 for s, e in zip(self.starts, self.ends)]
            self._bounds = [(a + b) / 2 for a, b in zip(mids, mids[1:])]
        return self._speeds, self._bounds

    def speeds(self) -> list[float]:
        return self._trace()[0]

    def sampler_seconds(self, start: float, end: float) -> float:
        """Time within [start, end] spent in the sampler's kernel."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def mean_speed(self, start: float, end: float) -> float:
        """Time-weighted mean speed over [start, end]."""
        speeds, bounds = self._trace()
        i = bisect.bisect_right(bounds, start)
        if end <= start:
            return speeds[i]
        total, t = 0.0, start
        while t < end:
            edge = min(bounds[i], end) if i < len(bounds) else end
            total += (edge - t) * speeds[i]
            t = edge
            i += 1
        return total / (end - start)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done in [start, end]."""
        work = (end - start) - self.sampler_seconds(start, end)
        return work * self.mean_speed(start, end)
