"""Host-speed calibration: timings in reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 50%, in stretches of about a second and over minutes.  Raw times of the
same code then spread wider than any useful bound.  So a fixed pure-Python
reference slice, dict products of tuple keys with ``Fraction`` values like
qcasimir's own inner loops, is timed all through a timed stretch, and each
stretch of program time is scaled by ``REF_S`` over the local slice time:

    scaled = raw * REF_S / (mean slice time around that stretch)

A scaled time reads in seconds on a host where the slice takes ``REF_S``.
The slice is part of the benchmark, never of qcasimir, so no change to the
program changes it, and a program that does less work still reads faster.
The time spent in slices is never counted as program time.

- ``probe()`` times a few slices back to back (set-up, once before and
  once after).
- ``Sampler`` interrupts the timed pass every ``TICK_S`` seconds of wall
  time with SIGALRM and times one slice in the handler, so long items are
  calibrated inside as well as at their ends.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# median slice time on the baseline host (2 vCPUs of a shared x86-64 host,
# CPython 3.x), so that scaled times read close to that host's seconds
REF_S = 0.0065
TICK_S = 0.05
WINDOW = 6  # slices around a gap whose median time scales it

_A = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_B = {(i, -j, j % 3): Fraction(j - 3, i + 1) for i in range(6) for j in range(6)}


def _slice() -> int:
    out: dict = {}
    for ka, va in _A.items():
        for kb, vb in _B.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            v = out.get(k, 0) + va * vb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return len(out)


def slice_time() -> float:
    t = perf_counter()
    _slice()
    return perf_counter() - t


def probe(reps: int = 3) -> float:
    """Median time of ``reps`` slices in a row."""
    return statistics.median(slice_time() for _ in range(reps))


class Sampler:
    """Times one slice every TICK_S seconds while active; ``clock`` then maps
    a ``perf_counter()`` reading taken meanwhile to program time, so that the
    difference of two readings is the program time between them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of slices

    def _take(self, *_):
        t = perf_counter()
        _slice()
        self.samples.append((t, perf_counter()))

    def __enter__(self):
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._take()
        return False

    def clock(self, scaled: bool = True):
        """t -> program time from the first slice to t, the slices left out.
        Scaled, each gap between two slices counts REF_S over the median time
        of the WINDOW slices around it: that follows the host's second-long
        swings but not the jitter of one slice."""
        s = self.samples
        times = [end - start for start, end in s]
        half = WINDOW // 2
        los, his, fs, cum = [], [], [], [0.0]
        for j in range(len(s) - 1):
            lo, hi = s[j][1], s[j + 1][0]
            f = REF_S / statistics.median(times[max(0, j + 1 - half):j + 1 + half]) if scaled else 1.0
            los.append(lo)
            his.append(hi)
            fs.append(f)
            cum.append(cum[-1] + (hi - lo) * f)

        def at(t: float) -> float:
            j = bisect.bisect_right(los, t) - 1
            return cum[j] + (min(t, his[j]) - los[j]) * fs[j] if j >= 0 else 0.0

        return at
