"""Host-speed probe: a fixed exact-arithmetic computation, timed while a pass runs.

On a host shared with other work the speed of the processor drifts by tens of
percent over minutes, so wall times of the same work differ from run to run.
The probe samples that speed in the same thread as the work: an interval
timer interrupts the pass every ``INTERVAL_S`` seconds and runs ``chunk``
once.  A pass's time divided by the mean chunk time is its relative time,
which cancels the drift the pass and its probe chunks share.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1

_ROWS = [{j: Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1) for j in range(8) if (i * j) % 3 != 1}
         for i in range(8)]


def chunk() -> int:
    """Rank of a fixed 8 x 8 rational matrix by sparse elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in _ROWS:
        r = dict(row)
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            f = r[c] / p[c]
            for k, v in p.items():
                nv = r.get(k, 0) - f * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return len(pivots)


class Probe:
    """Context manager that runs ``chunk`` on every timer tick while open."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t0)

    def sample(self) -> None:
        """One probe outside the timer, for callers that run the work elsewhere."""
        self._tick(None, None)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one tick
            self.sample()

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    @property
    def mean_s(self) -> float:
        return self.total_s / len(self.samples) if self.samples else float("nan")
