"""The host's speed over time, and times scaled to one fixed speed.

A shared virtual machine switches between speeds.  On a 2-vCPU host, small
NumPy calls in a Python loop ran about 1.7-1.9 times slower in some
stretches than in others, and building arrays from many small ones, as the
archive does after each insertion, about 2-2.2 times; a stretch lasted from
a tenth of a second to minutes.  A run of a few seconds cannot wait that out.
So while a :class:`HostClock` runs, a timer signal times two fixed kernels,
one of each kind, every ``PERIOD_S``, and a stretch of wall time is
multiplied by the speed last measured before it.  The kernels call nothing
in skillpipe, so no change there moves them, and their own time is left
out.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD_S = 0.05   # the host holds one speed for about this long or longer
# Each part's time at the speed times are scaled to: its usual fastest on a
# 2-vCPU shared virtual machine (Python 3.11, NumPy 2.4).
LOOP_S = 1.1e-4
ARCHIVE_S = 3.6e-4
_VECTORS = []   # archive_kernel's inputs, made once


def loop_kernel() -> float:
    """Small-array NumPy calls and plain arithmetic in a Python loop, as in
    skillpipe's simulators and solvers."""
    import numpy as np   # here, so that BLAS is pinned to one thread first

    x, acc = np.linspace(0.1, 0.5, 5), 0.0
    for i in range(24):
        a = np.cos(x * (i * 1e-3))
        acc += float(np.linalg.norm(a[:3] * 0.5 + a[2:])) + math.sin(i * 1e-3)
    return acc


def archive_kernel() -> float:
    """Stack 1000 outcome and 1000 parameter vectors into arrays and scan the
    outcomes, as the archive does when it inserts after growing; the throw
    archive holds about 1000 skills halfway through a fill."""
    import numpy as np

    if not _VECTORS:
        _VECTORS.extend(([np.full(2, i * 1e-3) for i in range(1000)],
                         [np.full(15, i * 1e-3) for i in range(1000)]))
    outcomes, params = (np.array(v) for v in _VECTORS)
    return float(np.linalg.norm(outcomes - outcomes[7], axis=1).min() + params[3, 0])


def _fastest_of_three(kernel) -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def host_speed(archive_share: float) -> float:
    """The host's speed for work that spends ``archive_share`` of its time in
    archive insertions and the rest in loops: above 1 when faster than the
    speed times are scaled to.  Interference slows the two kinds of code by
    different amounts, so each kernel measures its own kind."""
    loop = _fastest_of_three(loop_kernel) / LOOP_S
    archive = _fastest_of_three(archive_kernel) / ARCHIVE_S if archive_share else 0.0
    return 1.0 / ((1.0 - archive_share) * loop + archive_share * archive)


class HostClock:
    """Measures the host speed every PERIOD_S while inside ``with``, for work
    with the given ``archive_share``.

    ``probes`` holds ``(start, end, speed)`` per measurement, in time order;
    one is taken on entry, so every later instant has a speed.
    """

    def __init__(self, archive_share: float = 0.0):
        self.archive_share = archive_share
        self.probes: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._busy = False

    def probe(self, *_) -> None:
        if self._busy:   # a signal that arrives during a probe
            return
        self._busy = True
        start = time.perf_counter()
        speed = host_speed(self.archive_share)
        self.probes.append((start, time.perf_counter(), speed))
        self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)

    def scaled(self, a: float, b: float, *, scale: bool = True) -> float:
        """The wall time from a to b outside the probes, each stretch
        multiplied by the speed measured last before it (``scale=False``:
        not multiplied)."""
        if len(self._starts) != len(self.probes):
            self._starts = [p[0] for p in self.probes]
        starts = self._starts
        i = max(bisect.bisect_right(starts, a) - 1, 0)
        total, t = 0.0, a
        while t < b:
            _, end, speed = self.probes[i]
            t = max(t, end)
            stop = min(b, starts[i + 1]) if i + 1 < len(starts) else b
            total += max(stop - t, 0.0) * (speed if scale else 1.0)
            t, i = stop, i + 1
            if i >= len(starts):
                break
        return total
