"""Preloading: pull the whole table through the cache around each access.

The classic "preload the S-box" defence (also the paper's suggestion for
small lookup tables): perform the real access, then touch one element in
every *other* cache line of the table.  After the burst, every line of
the table is equally fresh, so an attacker probing at access granularity
sees the identical line multiset no matter which element was wanted.

Compared with :class:`~repro.mitigations.oblivious.ObliviousTable` this
keeps the real access's read-your-write semantics trivially (the real
element is accessed directly) and costs the same one-touch-per-line; the
difference is intent and applicability: preloading only *reads* the
cover lines, so it is selected for read-only gadget sites — a write-kind
observer would still see the lone real write of a ``set``.
"""

from __future__ import annotations

from repro.mitigations.oblivious import CoverTable
from repro.taint.value import value_of


class PreloadedTable(CoverTable):
    """Surround each access of a :class:`TArray` with a full-table read
    sweep (one element per cache line, ascending line order)."""

    def _cover(self, skip_line: int, site: str) -> None:
        """Read one element from every line except ``skip_line``."""
        for line, start in zip(self._line_of, self._line_starts):
            if line != skip_line:
                self.array.get(start, site=site)

    def get(self, index, site: str = ""):
        i = value_of(index)
        value = self.array.get(i, site=site or self.site)
        self._cover(self.array.address_of(i) >> 6, site or self.site)
        return value

    def set(self, index, new_value, site: str = "") -> None:
        i = value_of(index)
        self.array.set(i, new_value, site=site or self.site)
        self._cover(self.array.address_of(i) >> 6, site or self.site)

    def add(self, index, delta, site: str = "") -> None:
        i = value_of(index)
        value = self.array.get(i, site=site or self.site)
        self.array.set(i, value + delta, site=site or self.site)
        self._cover(self.array.address_of(i) >> 6, site or self.site)
