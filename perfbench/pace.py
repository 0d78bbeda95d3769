"""Machine pace: a fixed reference computation timed alongside the work.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within seconds to minutes, so raw times of the same code spread past
any useful bound. A ``Pacer`` times a fixed chunk of the kind of work
``dgla`` does (``Fraction`` arithmetic, small tuples as dict keys) before
and after the work and, through a real-time interval timer, every
``INTERVAL_S`` during it. The local pace at each sample is ``REF_CHUNK_S``
over the median chunk time of the samples around it, and ``paced`` turns a
span of the work into the time it would have taken at the reference pace:
the integral of the local pace over the span. The chunk lives here, not in
``src``, so no change to the library changes it.

``clock`` is ``perf_counter`` minus the time spent in chunks, so work timed
with it leaves the interruptions out.
"""

import bisect
import contextlib
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The usual median time of one chunk on the machine the README describes
# (2 vCPUs, Python 3.11.7); paced times are seconds at that pace.
REF_CHUNK_S = 0.004
INTERVAL_S = 0.1
# The local pace at a sample is taken over this many samples on each side
# (about 0.3 s): the machine's speed changes within seconds.
HALF_WINDOW = 3
# Chunks run before and after the work, so that even work shorter than
# INTERVAL_S has a pace.
EDGE_CHUNKS = 10

_N = 9
_A = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i * j) % 4) for j in range(_N)] for i in range(_N)]
_COLS = [list(c) for c in zip(*_A)]


def chunk():
    """The reference work: a rational matrix product and dict updates."""
    m = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in _COLS] for row in _A]
    d = {}
    for i in range(1200):
        key = ((i * 7919) % 1009, i % 13)
        d[key] = d.get(key, 0) + i
    return m, d


class Pacer:
    def __init__(self):
        self.times = []  # clock() at each sample
        self.samples = []  # chunk time of each sample, in s
        self.spent = 0.0
        self._factors = None

    def sample(self):
        """Run and time one chunk, with the collector off so that the heap
        the work has built does not change the chunk's cost."""
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        t1 = perf_counter()
        chunk()
        t2 = perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t0 - self.spent)
        self.samples.append(t2 - t1)
        self.spent += perf_counter() - t0

    def clock(self):
        return perf_counter() - self.spent

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample the pace around and, by interval timer, during the body."""
        for _ in range(EDGE_CHUNKS):
            self.sample()
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        for _ in range(EDGE_CHUNKS):
            self.sample()

    def factors(self):
        """The local pace at each sample."""
        if self._factors is None:
            s = self.samples
            self._factors = [
                REF_CHUNK_S / statistics.median(s[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
                for i in range(len(s))
            ]
        return self._factors

    def paced(self, a, b):
        """Time at the reference pace of the clock span [a, b]: each part of
        the span between two samples counts at the mean pace of those two,
        and a part beyond the outermost samples at the pace of the nearest."""
        f = self.factors()
        ts = self.times
        last = len(ts) - 1
        i = bisect.bisect_right(ts, a) - 1
        total = 0.0
        while a < b:
            end = min(b, ts[i + 1]) if i < last else b
            total += (end - a) * (f[max(i, 0)] + f[min(i + 1, last)]) / 2
            a = end
            i += 1
        return total
