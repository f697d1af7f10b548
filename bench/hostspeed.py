"""How fast the host ran the benchmark's process while a round ran.

On a shared host the same code runs at different speeds from minute to
minute: other tenants take the cores' shared caches, memory bandwidth and
clock budget.  While a round runs, a SIGALRM handler runs a fixed
pure-Python loop every INTERVAL_S of wall time and records how long the
loop took.  The median of those times is the round's host speed; the
round's time over it (`wall_norm`) moves with the program and much less
with the host.  Only the main thread runs the handler, between two
bytecodes, so a long native call delays a sample but is never cut short.
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
LOOP_N = 3000  # about 0.2 ms a sample, so sampling costs about 0.4% of a round


class Sampler:
    """Context manager that samples the reference loop while it is entered."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i & 7
        self.samples.append(time.perf_counter() - start)

    def spent(self):
        """Seconds spent in the loop so far, to subtract from timed work."""
        return sum(self.samples)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than INTERVAL_S: one sample at its end
            self._tick(None, None)
        return False

    def loop_s(self):
        """Median time of one reference loop; None if never entered."""
        return statistics.median(self.samples) if self.samples else None
