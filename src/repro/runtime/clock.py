"""A speed-scaled virtual clock for the live runtime.

Simulated seconds map to wall-clock seconds divided by ``speedup``, so an
examples run can play a 200-slot day in under a second while the threads
still experience real concurrency (queueing, interleaving, contention).
"""

from __future__ import annotations

import math
import time


class VirtualClock:
    """Monotonic virtual time with scaled sleeping.

    Attributes:
        speedup: Virtual seconds per wall second (e.g. 200 → a 1 s virtual
            service occupies 5 ms of wall time).
    """

    def __init__(self, speedup: float = 100.0):
        # A chained comparison is False for NaN, so NaN fails too.
        if not 0 < speedup < math.inf:
            raise ValueError("speedup must be finite and positive")
        self.speedup = speedup
        self._start = time.monotonic()

    def now(self) -> float:
        """Current virtual time in seconds since the clock started."""
        return (time.monotonic() - self._start) * self.speedup

    def sleep(self, virtual_seconds: float) -> None:
        """Block the calling thread for the scaled wall equivalent."""
        if virtual_seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        if virtual_seconds > 0:
            time.sleep(virtual_seconds / self.speedup)
