"""Scaling measured times to a reference machine speed.

The machines this benchmark runs on are shared: the speed of one core moves
by up to 1.9x within a minute, in phases lasting seconds to tens of seconds,
and process CPU time moves with it.  Raw times therefore spread far more
between runs than any regression bound.  So the benchmark times a fixed,
pure-Python calibration workload between jobs, about every 50 ms.  Each
job's time is scaled by REFERENCE_NS / (the mean of the calibration samples
just before and just after it).

The calibration workload is shaped like the engine's inner loop: a
breadth-first search over tuple states with a visited set, and dictionary
lookups keyed by (state index, port name).  It shares no code with the
package and runs with the cyclic garbage collector off, so the objects the
package keeps alive cannot add collections to it.  A package change could
still move it through the CPU caches; that has not been measured.  On a
machine running at the reference speed, a scaled time equals the raw time.
"""

from __future__ import annotations

import gc
import time

# Calibration time at the reference speed: the fast phase of a 2-core
# x86-64 container running CPython 3.11.
REFERENCE_NS = 4_000_000
EVERY_S = 0.05


def _work() -> int:
    seen = {(0,) * 8}
    frontier = [(0,) * 8]
    while frontier and len(seen) < 2000:
        q = frontier.pop()
        for k in range(8):
            n = q[:k] + ((q[k] + 1) % 3,) + q[k + 1:]
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    moves = [{(j, f"p{k}"): (j + 1) % 5 for j in range(5) for k in range(6)} for _ in range(40)]
    q = [0] * 40
    hits = 0
    for _ in range(20):
        for ci in range(40):
            for k in range(6):
                if (q[ci], f"p{k}") in moves[ci]:
                    hits += 1
        q = [(x + 1) % 5 for x in q]
    return len(seen) + hits


class Clock:
    """Calibration samples, taken on demand between jobs."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Take a sample now; returns its index."""
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            _work()
            self.samples.append(time.perf_counter_ns() - t0)
        finally:
            gc.enable()
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the latest sample, taking a new one if the latest is
        older than EVERY_S.  Call before a job; sample() again after the
        last job so every mark has a later sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Factor that takes a time measured after `mark` (and before the
        next sample) to the reference speed."""
        after = self.samples[mark + 1] if mark + 1 < len(self.samples) else self.samples[mark]
        return REFERENCE_NS / ((self.samples[mark] + after) / 2)
