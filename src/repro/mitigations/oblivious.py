"""Oblivious-access table covers: the Section VIII defence.

The defence property is *constant access at cache-line granularity*:
for any two equal-length inputs, the multiset of cache lines touched per
step is identical, so neither Prime+Probe nor the controlled channel
carries information.  Correctness is preserved: a cover wrapper keeps
its table's contents exactly, so the vulnerable compressor run over
wrapped tables (the histogram of Listing 3, ``lzw_compress`` through its
``wrap_table`` seam) produces output decodable by — indeed identical to
— the ordinary compressor's.

The cost is also the point: every logical table access becomes a scan of
one element per cache line of the table, which the mitigation benchmark
quantifies (hundreds to thousands of extra accesses per input byte —
the reason the paper notes that disabling compression remains the only
deployed complete defence).
"""

from __future__ import annotations

from repro.exec.arrays import TArray
from repro.taint.value import value_of


class CoverTable:
    """What every cover wrapper shares: the table's cache-line layout
    and the :class:`TArray` passthroughs that make a wrapper a drop-in
    table replacement (``snapshot`` for zlib's ``flush_block``, ``fill``
    for LZW's block-mode clear and the bzip2 histogram's reset).

    Args:
        array: the backing table.
        site: label stamped on the cover traffic when a call passes no
            ``site=`` of its own, normally the *original* gadget site so
            observers (and the diag meter) attribute the uniform traffic
            to the mitigated location.
    """

    def __init__(self, array: TArray, site: str = "") -> None:
        self.array = array
        self.site = site
        # First element index of every distinct cache line the array
        # spans (computed from real addresses, so deliberately
        # misaligned arrays like Bzip2's ftab are handled correctly),
        # and each line's position in that list.
        self._line_starts: list[int] = []
        self._line_of: dict[int, int] = {}
        prev_line = None
        for k in range(array.length):
            line = array.address_of(k) >> 6
            if line != prev_line:
                self._line_of[line] = len(self._line_starts)
                self._line_starts.append(k)
                prev_line = line

    @property
    def cover_count(self) -> int:
        """Lines touched per access: every line of the table."""
        return len(self._line_starts)

    # -- TArray passthroughs --------------------------------------------
    def snapshot(self) -> list:
        return self.array.snapshot()

    def fill(self, value) -> None:
        self.array.fill(value)

    def address_of(self, index: int) -> int:
        return self.array.address_of(index)

    def __len__(self) -> int:
        return self.array.length


class ObliviousTable(CoverTable):
    """Constant-access wrapper around a :class:`TArray`.

    Every ``get``/``set``/``add`` touches exactly one element in *every*
    cache line of the backing array, at the same intra-line offset, and
    selects or updates the requested element with data-independent
    control flow.  At cache-line granularity the access pattern is a
    constant full scan.  Subclasses narrow the scanned lines by
    overriding :meth:`_positions`.
    """

    def _positions(self, index) -> tuple[int, list[int]]:
        """One element per cache line; the target's line probes the
        target element itself (intra-line position is invisible to the
        channel)."""
        i = value_of(index)
        target_line = self.array.address_of(i) >> 6
        positions = list(self._line_starts)
        positions[self._line_of[target_line]] = i
        return i, positions

    def get(self, index, site: str = ""):
        """Read ``array[index]`` while touching every covered line once."""
        site = site or self.site
        i, positions = self._positions(index)
        result = 0
        for k in positions:
            value = self.array.get(k, site=site)
            if k == i:
                result = value
        return result

    def set(self, index, new_value, site: str = "") -> None:
        """Write ``array[index]``; every covered line gets one read + one
        write (non-target lines write their old value back)."""
        site = site or self.site
        i, positions = self._positions(index)
        for k in positions:
            value = self.array.get(k, site=site)
            self.array.set(k, new_value if k == i else value, site=site)

    def add(self, index, delta, site: str = "") -> None:
        """``array[index] += delta`` with uniform covered-line traffic."""
        site = site or self.site
        i, positions = self._positions(index)
        for k in positions:
            value = self.array.get(k, site=site)
            self.array.set(k, value + delta if k == i else value, site=site)
