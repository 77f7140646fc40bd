"""A fixed reference kernel that gauges the host's speed during a run.

On a shared host the speed of one core drifts by tens of percent over
seconds, which swamps the differences a benchmark is meant to show.  The
benchmark therefore runs this kernel throughout a run and reports its
times scaled to a host that runs the kernel in `REF_S` seconds:

    normalised seconds = measured seconds * REF_S / mean kernel seconds nearby

The vCPUs of such a host also switch between a fast and a slow state, not
always together, so `pin` keeps the benchmark and its children on one
CPU, the one the kernel measures.

The kernel does the kinds of work fixedloci does (Fraction pivoting,
integer elimination mod p, tuple and dict bookkeeping, JSON round trips)
and imports nothing from fixedloci, so a change to the program cannot move
it.  It must never be edited once baselines exist: a different kernel is a
different unit.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import statistics
import time
from fractions import Fraction

# nominal kernel seconds, near the 0.015-0.02 s the kernel takes with
# CPython 3.11 on one vCPU of a 2-vCPU Intel Xeon host
REF_S = 0.02

_MATRIX = [[(3 * i + 5 * j + i * j) % 11 - 5 for j in range(9)] for i in range(7)]


def _fraction_pivots():
    T = [[Fraction(x) for x in row] for row in _MATRIX]
    m, n = len(T), len(T[0])
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if T[i][c] != 0), None)
        if p is None:
            continue
        T[r], T[p] = T[p], T[r]
        piv = T[r][c]
        T[r] = [a / piv for a in T[r]]
        for i in range(m):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [a - f * b for a, b in zip(T[i], T[r])]
        r += 1
        if r == m:
            break
    return sum(x.numerator % 97 + x.denominator % 89 for row in T for x in row)


def _rank_mod_p(p=5):
    rows = [[(i * i + 7 * j + i * j * j) % p for j in range(14)] for i in range(12)]
    rank = 0
    for c in range(14):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _subset_bookkeeping(n=10):
    memo = {}
    total = 0
    for mask in range(1 << n):
        support = tuple(i for i in range(n) if mask >> i & 1)
        key = (len(support), sum(support) % 7)
        memo[key] = memo.get(key, 0) + 1
        if len(support) % 3 == 0:
            total += sum(support)
    return total + len(memo)


def _json_round_trip():
    doc = {"kind": "toric", "weights": [{"chi": [i, -i, i % 3], "mult": i % 4 + 1} for i in range(40)],
           "theta": [1, 2, 3]}
    return len(json.loads(json.dumps(doc, indent=1))["weights"])


def kernel():
    """One unit of reference work; returns a checksum that never changes."""
    return (sum(_fraction_pivots() for _ in range(6)) + _rank_mod_p() * 4
            + _subset_bookkeeping() + sum(_json_round_trip() for _ in range(4)))


# what `kernel` returns; a kernel that returns anything else has been edited
CHECKSUM = 11856


def sample():
    """Seconds one kernel takes now.  The cyclic garbage collector is held
    off meanwhile, so that the size of the caller's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = kernel()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if value != CHECKSUM:
        raise RuntimeError("reference kernel gave %r, not %r" % (value, CHECKSUM))
    return dt


class Gauge:
    """Kernel samples taken every `interval` seconds while the gauge runs.

    The host's speed changes within a second, and one problem can run for
    seconds, so samples taken only between problems would miss most of it.
    Inside `with gauge:` a SIGALRM interval timer runs the kernel from the
    main thread between bytecodes, in the middle of a problem as well, so
    the samples are spread evenly in time; one more is taken on entry and
    one on exit.  `net` takes the kernel's own time back out of a
    problem's time, and `scale` turns it into normalised seconds by the
    mean of the samples around the problem.
    """

    WINDOW = 0.5  # seconds either side of a problem whose samples scale it

    def __init__(self, interval=0.25):
        self.interval = interval
        self.starts = []   # perf_counter() when each sample began
        self.samples = []  # seconds each sample took
        self._busy = False

    def take(self, *_):
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append(sample())
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self):
        self.take()
        self._old = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.take()

    def _range(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def net(self, t0, t1):
        """Seconds from t0 to t1 less the samples taken in between."""
        lo, hi = self._range(t0, t1)
        return t1 - t0 - sum(self.samples[lo:hi])

    def scale(self, t0, t1):
        """Factor from measured to normalised seconds for work done from t0 to t1."""
        lo, hi = self._range(t0 - self.WINDOW, t1 + self.WINDOW)
        near = self.samples[lo:hi] or self.samples
        return REF_S / statistics.fmean(near)


def pin():
    """Keep this process and its future children on one CPU; returns it, or
    None where the platform cannot pin."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
