"""Host-speed sampling: a fixed pure-Python loop timed while operations run.

On a shared host the speed of one core swings by up to a third within
seconds, and slow or fast spells can outlast a whole run.  Every time the
benchmark reports is therefore scaled to a reference host speed:

    reported = measured * REFERENCE_S / (mean probe time while it ran)

The probe is the benchmark's own code and never calls setdirect, so a
change to the library moves the reported times in full, while a change in
host speed, which slows the probe as much as the library, cancels out.
The loop does what the library's hot paths do: bitmask translates through
the rows of a multiplication table.  A SIGALRM handler runs it every
INTERVAL_S of wall time, so an operation that takes seconds is sampled
while it runs; the handler's own time is subtracted from the timings.
"""

from __future__ import annotations

import signal
import statistics
import time

_N = 32
_TABLE = tuple(tuple((a + b) % _N for b in range(_N)) for a in range(_N))
_MASKS = tuple(range(1, 1 << 10, 97))

# Reported times are seconds at the speed at which one probe takes exactly
# this long; on the machine described in baseline.json it took 0.3 to 0.45 ms.
REFERENCE_S = 0.0004
INTERVAL_S = 0.1
MIN_SAMPLES = 5


def probe() -> float:
    """Seconds taken by one round of the fixed loop (about 0.4 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for mask in _MASKS:
        for row in _TABLE:
            out, rest = 0, mask
            while rest:
                low = rest & -rest
                out |= 1 << row[low.bit_length() - 1]
                rest ^= low
            acc ^= out
    return time.perf_counter() - t0


class Sampler:
    """While active, times probe() every INTERVAL_S from a SIGALRM handler."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: int) -> float:
        """Scale factor for work done since sample `start`; probes directly
        when the timer fired fewer than MIN_SAMPLES times in that span."""
        while len(self.samples) - start < MIN_SAMPLES:
            self.samples.append(probe())
        return REFERENCE_S / statistics.mean(self.samples[start:])
