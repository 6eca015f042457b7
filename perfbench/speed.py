"""The host's speed, measured between certificates by a fixed computation.

On the shared 2-vCPU VM this benchmark was built on, one fixed certificate
took anywhere from 0.68 s to 1.61 s within three minutes, and the host held
each speed for seconds at a time.  Raw times of whole runs of fixed work
then spread by 20 to 30% between runs, however long the runs were.

A fixed computation of the benchmark's own (exact rational elimination and
a sparse integer polynomial product: the same kind of interpreter work as
the program's) is timed between certificates and, on a timer, during them.
Each stretch of a certificate's time is scaled by REFERENCE_S over the
reference's time on its two sides, which gives seconds at the speed where
the reference takes REFERENCE_S.  Over four minutes of repeating two fixed
certificates with samples 0.5 s apart, the spread (quartiles over median)
of a 1.5 s certificate's time fell from 24% raw to 8% scaled, and of a
30 ms one from 28% to 14%.
The reference calls nothing in jpencil, so a change to the program moves
the scaled times as much as the raw ones.  No sample is taken while the
program has child processes at work, since they share the host's cores
with the reference.
"""

import contextlib
import gc
import os
import random
import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# The reference's usual time on the VM above: the unit of scaled times.
REFERENCE_S = 0.0035
# The time between samples inside a certificate, and the least time since
# the last sample after which one is taken between certificates.  With
# samples 1 s apart instead of 0.5 s, a 30 ms certificate spread by 19%
# after scaling instead of 14%.
SAMPLE_EVERY_S = 0.25
# A sample is the mean of this many back-to-back runs.  The host switches
# between a fast and a slow state within milliseconds (one run of the
# reference takes about 2.4 or 3.9 ms, seldom between), and the mean of a
# few runs tracked the program's times better than one run or the fastest.
REPEATS = 5

_rng = random.Random("perfbench-reference")
_MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(9))
                for _ in range(9))
_POLY = {tuple(_rng.randint(0, 3) for _ in range(4)): _rng.randint(1, 30) for _ in range(40)}


def reference_work():
    """Fraction elimination of a fixed 9 x 9 matrix and a product of two
    fixed sparse polynomials mod 31; returns values that depend on both."""
    rows = [list(row) for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    product = {}
    for ea, ca in _POLY.items():
        for eb, cb in _POLY.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            product[e] = (product.get(e, 0) + ca * cb) % 31
    return rows[-1][-1], sum(product.values())


def _has_children():
    """Whether this process has a live child, such as a worker of the
    program's process pool, which shares the host's cores with the
    reference."""
    try:
        for tid in os.listdir("/proc/self/task"):
            with open("/proc/self/task/%s/children" % tid) as fh:
                if fh.read().strip():
                    return True
    except OSError:
        pass
    return False


class Speed:
    """Reference samples of one timed loop, and the scale they give.

    Samples are taken between certificates and, while `inside` is active,
    every SAMPLE_EVERY_S inside them too, from a SIGALRM handler, so that a
    certificate of several seconds is scaled by the speed during it.  A
    sample inside a certificate is left out of its time.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.seconds = []
        self._sampling = False

    def sample(self):
        """Time the reference now, with the garbage collector off so that
        a collection of the program's heap is not charged to the host."""
        if self._sampling:
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(REPEATS):
                reference_work()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append((end - start) / REPEATS)

    def sample_if_due(self, now):
        if not self.ends or now - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def _on_alarm(self, signum, frame):
        if not _has_children():
            self.sample()

    @contextlib.contextmanager
    def inside(self):
        """Sample on a timer as well as between certificates."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, t0, t1):
        """(seconds, seconds at the reference speed) from t0 to t1, less
        the samples taken in between.

        Each stretch between samples is scaled by REFERENCE_S over the mean
        time of the samples on its two sides; the first has the last sample
        that ended by t0 on its left, the last the first sample that started
        at or after t1 on its right.
        """
        first = bisect_right(self.ends, t0) - 1
        last = bisect_left(self.starts, t1)
        if first < 0 or last == len(self.starts):
            raise ValueError("no reference sample on both sides of %.3f..%.3f" % (t0, t1))
        seconds = scaled = 0.0
        left = t0
        for i in range(first + 1, last + 1):
            right = t1 if i == last else self.starts[i]
            stretch = right - left
            seconds += stretch
            scaled += stretch * REFERENCE_S / ((self.seconds[i - 1] + self.seconds[i]) / 2)
            left = self.ends[i] if i < last else t1
        return seconds, scaled
