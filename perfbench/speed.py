"""How fast this machine runs Python right now.

On a shared host the same pure-Python loop can take 0.16 s in one minute
and 0.29 s a minute later, so seconds measured in one run do not compare
with seconds measured in the next.  The benchmark times
:class:`ReferenceLoop` just before and just after every iteration; a
run's median iteration time divided by its median kernel time cancels
much of the drift, and a change to the program moves only the numerator.
"""

from __future__ import annotations

import random
import time
from array import array


class _Counter:
    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1


class ReferenceLoop:
    """A fixed pure-Python kernel shaped like the simulators it
    calibrates: method calls, attribute updates, dict probes and inserts,
    list indexing, integer arithmetic, and random lookups in a dict and
    an array too large for the CPU caches (about 20 MB).  Memory-bound
    lookups matter: a kernel that stays in cache speeds up and slows down
    with the host by more than the workloads do."""

    SAMPLES = 4
    SIZE = 25_000

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        self._keys = [rng.getrandbits(20) for _ in range(self.SIZE)]
        self._table = {rng.getrandbits(40): i for i in range(1 << 17)}
        self._probes = rng.choices(list(self._table), k=self.SIZE)
        self._array = array("q", range(1 << 20))
        self._index = [rng.randrange(1 << 20) for _ in range(self.SIZE)]

    def _kernel(self) -> int:
        seen: dict[int, int] = {}
        counter = _Counter()
        lines = [0] * 64
        total = 0
        for key, probe, i in zip(self._keys, self._probes, self._index):
            hit = key in seen
            counter.record(hit)
            if not hit:
                seen[key] = i
            lines[key & 63] += 1
            total += self._table[probe] ^ self._array[i] * 3
        return total + counter.hits + len(seen)

    def seconds(self) -> float:
        """Mean duration of a few back-to-back runs of the kernel.  The
        mean, not the median: a slice of time the host takes away slows
        the kernel by the same share as it slows the workload."""
        t0 = time.perf_counter()
        for _ in range(self.SAMPLES):
            self._kernel()
        return (time.perf_counter() - t0) / self.SAMPLES
