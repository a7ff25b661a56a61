"""Noise sources the attack's accuracy techniques exist to defeat.

Two distinct mechanisms, matching the paper's Section V-C:

* :class:`BackgroundNoise` — "cache contention from unrelated
  applications that can lead to false positives" (other cores touching
  random lines).  It runs under its *own* class of service, so CAT
  partitioning (Section V-C1) walls it off completely; with CAT disabled
  it shares ways with the probe lines and evicts them at random.
* :class:`OsPollution` — "the transition between states ... pollutes the
  cache with memory accesses from SGX and the OS" (Section V-C2).  It
  runs in the *attack partition* (same core, same COS), touching a fixed
  working set of kernel/SGX lines on every page fault, so CAT cannot
  help; the frame-selection technique exists to steer the monitored sets
  away from it.
"""

from __future__ import annotations

import random

from repro.cache.model import LINE_SIZE, Cache


class BackgroundNoise:
    """Random line traffic from the rest of the system."""

    def __init__(
        self,
        cache: Cache,
        rate: int,
        cos: int = 1,
        region_base: int = 0x2_0000_0000,
        region_lines: int = 1 << 16,
        seed: int = 7,
    ) -> None:
        self._cache = cache
        self.rate = rate
        self.cos = cos
        self._base = region_base
        self._lines = region_lines
        self._rng = random.Random(seed)

    def step(self) -> None:
        """Touch ``rate`` random lines (call once per victim step).

        The addresses are drawn first (same RNG stream as the scalar
        loop), then pushed through the batch cache path in one call.
        """
        randrange = self._rng.randrange
        base, lines = self._base, self._lines
        addrs = [
            base + randrange(lines) * LINE_SIZE for _ in range(self.rate)
        ]
        self._cache.access_many_silent(addrs, self.cos)


class OsPollution:
    """Fixed kernel/SGX working set touched on every fault delivery."""

    def __init__(
        self,
        cache: Cache,
        n_lines: int = 48,
        cos: int = 0,
        region_base: int = 0x3_0000_0000,
        seed: int = 13,
    ) -> None:
        self._cache = cache
        self.cos = cos
        rng = random.Random(seed)
        # A fixed, scattered working set: same lines on every fault.
        self.lines = sorted(
            rng.sample(range(1 << 16), n_lines)
        )
        self._addrs = [region_base + l * LINE_SIZE for l in self.lines]
        self._working_set = cache.working_set(self._addrs)

    def fault_entry(self) -> None:
        """The cache cost of delivering one page fault."""
        self._cache.access_many_silent(self._working_set, self.cos)

    def polluted_locations(self) -> set[tuple[int, int]]:
        """(slice, set) pairs this pollution lands on — what frame
        selection must avoid."""
        return {self._cache.location(a) for a in self._addrs}
