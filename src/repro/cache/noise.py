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
import sys

from repro.cache.model import LINE_SIZE, Cache

# MT words per pre-drawn chunk of background-noise addresses.
_CHUNK_WORDS = 2048


class BackgroundNoise:
    """Random line traffic from the rest of the system.

    The line addresses are ``region_base + randrange(region_lines) *
    LINE_SIZE`` from a private ``random.Random(seed)``, in order.  They
    are pre-drawn in chunks: ``randrange(n)`` tries ``getrandbits(k)``,
    ``k = n.bit_length()``, until a try is below ``n``, and for ``k <=
    32`` a try is one MT word shifted right by ``32 - k``.  So one
    ``getrandbits(32 * _CHUNK_WORDS)`` call yields a chunk's tries, and
    the accepted ones are the next addresses of the scalar stream.
    """

    def __init__(
        self,
        cache: Cache,
        rate: int,
        cos: int = 1,
        region_base: int = 0x2_0000_0000,
        region_lines: int = 1 << 16,
        seed: int = 7,
    ) -> None:
        if not 1 <= region_lines < 1 << 32:
            raise ValueError(
                f"region_lines must be in [1, 2**32), got {region_lines}"
            )
        self._cache = cache
        self.rate = rate
        self.cos = cos
        self._base = region_base
        self._lines = region_lines
        self._rng = random.Random(seed)
        self._addrs: list[int] = []  # pre-drawn addresses
        self._next = 0  # the first unused one

    def _predraw(self, need: int) -> None:
        """Keep the unused addresses, in order, and append whole chunks
        until at least ``need`` are unused."""
        import numpy as np

        shift = 32 - self._lines.bit_length()
        addrs = self._addrs[self._next :]
        while len(addrs) < need:
            words = self._rng.getrandbits(32 * _CHUNK_WORDS)
            tries = np.frombuffer(
                words.to_bytes(4 * _CHUNK_WORDS, sys.byteorder), np.uint32
            ) >> shift
            lines = tries[tries < self._lines].astype(np.int64)
            addrs += (lines * LINE_SIZE + self._base).tolist()
        self._addrs = addrs
        self._next = 0

    def step(self) -> None:
        """Touch ``rate`` random lines (call once per victim step).

        The addresses are the scalar ``randrange`` stream, pre-drawn in
        chunks; each is one :meth:`Cache.access_silent`, which for the
        attack's two lines a step costs less than a batch call.
        """
        i = self._next
        end = i + self.rate
        if end > len(self._addrs):
            self._predraw(self.rate)
            i, end = 0, self.rate
        self._next = end
        touch = self._cache.access_silent
        cos = self.cos
        for addr in self._addrs[i:end]:
            touch(addr, cos)


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
