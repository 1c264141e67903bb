"""The reference loop: a fixed piece of work that gauges the host's speed.

The benchmark runs on hosts shared with other tenants, whose load makes the
same code run up to about 1.7 times slower for minutes at a time; neither
the fastest nor the median pass of a run can filter out a slow phase that
covers the whole run.  So while a pass is timed, a `Gauge` runs one chunk
of the reference loop every `EVERY_S` of wall time, from a timer signal in
the same thread, and takes the chunks' time out of the calls they
interrupted.  Each time the benchmark reports is then stated for a host on
which a chunk takes `REF_S`.

Load slows the chunk more than it slows threeweb: over 80 passes of
`table` and `sieve` timed on a shared 2-core host while the median chunk
ranged from 1.8 ms to 3.6 ms, log pass time followed log chunk time with a
slope of 0.75 on both workloads (correlation 0.95 and 0.92).  Scaling by
the full ratio would turn a slow phase into a fast reading, so a time t
measured beside chunks of median c is reported as t * (REF_S / c) ** ALPHA.

A chunk mixes what threeweb spends its time on: Python float arithmetic and
calls, and small numpy fancy indexing and `bincount` on 35-element arrays,
the size of a degree-3 jet in four variables.  It uses numpy only, never
threeweb, so a change to the package cannot change the yardstick.
"""

import contextlib
import math
import signal
import statistics
import time

import numpy as np

REF_S = 0.002   # the chunk time the reported times are stated for
ALPHA = 0.75    # how threeweb's time follows chunk time under load
EVERY_S = 0.05  # wall time between chunks while a Gauge runs

_rng = np.random.default_rng(20001)
_I, _J, _K = (_rng.integers(0, 35, 200) for _ in range(3))


def chunk():
    """Run one chunk of the reference loop; return its seconds."""
    start = time.perf_counter()
    c = np.linspace(0.1, 1.0, 35)
    s = 0.0
    for n in range(500):
        c = np.bincount(_K, weights=c[_I] * c[_J], minlength=35) * 0.01 + 0.5
        s += float(c[n % 35]) * 1.0001 - math.sqrt(abs(s) + 1.0) * 1e-3
    return time.perf_counter() - start


def factor(chunks):
    """The factor that states a time measured beside `chunks` at REF_S."""
    return (REF_S / statistics.median(chunks)) ** ALPHA


class Gauge:
    """Chunks run from SIGALRM every EVERY_S while `running`.

    `spent` is the seconds the chunks took, for the caller to take out of
    the calls they interrupted.
    """

    def __init__(self):
        self.chunks = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        took = chunk()
        self.chunks.append(took)
        self.spent += took

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self):
        if not self.chunks:  # a pass shorter than EVERY_S
            self._tick(None, None)
        return factor(self.chunks)
