"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose speed changes by tens of percent
from one tenth of a second to the next, as neighbours load the cores. CPU
time changes with it: the process is not kept off the CPU, the CPU runs
slower. A fixed reference loop, timed in the same thread every
SAMPLE_EVERY_S of CPU time, measures that speed as it changes, and each
call's time is scaled by REFERENCE_S over the mean reference time around
it. A change to the program moves its calls' times and not the reference's,
so it shows in the scaled figures; a change in host speed moves both and
cancels out.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

clock = time.thread_time  # CPU time of the calling thread
REFERENCE_S = 0.002  # scaled times are at the host speed where reference() takes this
SAMPLE_EVERY_S = 0.05  # CPU seconds between two reference samples

_P = (1 << 61) - 1
_N = (1 << 255) - 19


class _Point:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def mul(self, other: _Point) -> _Point:
        return _Point(self.v * other.v % _P)


def reference() -> float:
    """CPU seconds of a fixed loop shaped like the package's work.

    Modular products of word-sized ints with object allocation, method calls
    and dict inserts and lookups, as in a baby-step giant-step table; then
    products and gcds of 255-bit ints, as in factoring.
    """
    start = clock()
    table = {}
    a, g = _Point(3), _Point(5)
    for i in range(2500):
        a = a.mul(g)
        table[a.v] = i
    hits = 0
    for i in range(2500):
        hits += (i * 7 % _P) in table
    x = 3
    for i in range(600):
        x = (x * x + 1) % _N
        if i % 50 == 0:
            hits += math.gcd(x, _N)
    return clock() - start


class Scaled:
    """Times of the calls made in a `with` block, scaled to the reference speed.

    On entry and exit the reference is timed; with `sampling`, a profiling
    timer also times it every SAMPLE_EVERY_S of CPU time, from a signal
    handler in the calling thread, so long calls are sampled inside too.
    The samples' own time is taken out of the calls'. After the block each
    call's time is scaled by the mean of the samples taken during it and
    the two around it.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.raw: list[float] = []  # CPU seconds as measured, one per call
        self.times: list[float] = []  # seconds at the reference speed, one per call
        self.refs: list[float] = []
        self._spans: list[tuple[int, int]] = []  # per call: samples taken before it starts, and by its end
        self._sample_s = 0.0  # CPU seconds spent taking samples
        self._in_sample = False
        self._saved_handler = None

    def _sample(self, *_) -> None:
        if self._in_sample:
            return
        self._in_sample = True
        start = clock()
        self.refs.append(reference())
        self._sample_s += clock() - start
        self._in_sample = False

    def __enter__(self) -> Scaled:
        self._sample()
        if self.sampling:
            self._saved_handler = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._saved_handler)
        self._sample()
        self.times = [seconds * REFERENCE_S / statistics.fmean(self.refs[before - 1:after + 1])
                      for seconds, (before, after) in zip(self.raw, self._spans)]

    @contextlib.contextmanager
    def call(self):
        """Time the block's CPU time as one call, leaving out the samples taken in it."""
        before, sample_s, start = len(self.refs), self._sample_s, clock()
        try:
            yield
        finally:
            self.raw.append(clock() - start - (self._sample_s - sample_s))
            self._spans.append((before, len(self.refs)))
