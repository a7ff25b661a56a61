"""Index-mask covering: hide only the *tainted* index bits of a table.

The full oblivious scan of :class:`~repro.mitigations.oblivious.
ObliviousTable` touches every cache line of the table on every access —
correct but maximally expensive.  When the gadget report shows that only
a few line-granularity index bits ever carry taint (e.g. zlib's
``dyn_ltree[c].Freq++``, where ``c`` is one input byte indexing a
257-entry table), it is enough to touch one element in every line the
tainted bits can *reach*: vary exactly those bits through all their
combinations and leave the untainted bits pinned.

For two equal-length inputs the tainted bits are, by construction, the
only bits that differ at a given logical step, so the covered line set —
and therefore the per-step touched-line multiset — is input-independent.
Cost is ``2**len(mask_bits)`` touches per access instead of one per
table line, which is what makes masking worth selecting when
``2**len(mask_bits)`` is smaller than the table's line count.
"""

from __future__ import annotations

from repro.exec.arrays import TArray
from repro.mitigations.oblivious import ObliviousTable
from repro.taint.value import value_of


class MaskedTable(ObliviousTable):
    """Cover a :class:`TArray` access by varying its tainted index bits.

    Args:
        array: the backing table.
        mask_bits: index-bit positions that may carry taint (from the
            gadget's address-taint rows, shifted down by the element
            size; the planner computes these).  Every access touches one
            element per distinct cache line reachable by varying exactly
            these bits of the requested index.
        site: as for :class:`~repro.mitigations.oblivious.CoverTable`.
    """

    def __init__(self, array: TArray, mask_bits, site: str = "") -> None:
        super().__init__(array, site=site)
        self.mask_bits = tuple(sorted(set(int(b) for b in mask_bits)))

    def _positions(self, index) -> tuple[int, list[int]]:
        """One probe element per line the tainted bits can reach; the
        target's line probes the target element itself."""
        i = value_of(index)
        base = i
        for b in self.mask_bits:
            base &= ~(1 << b)
        probe_of_line: dict[int, int] = {}
        for combo in range(1 << len(self.mask_bits)):
            cand = base
            for k, b in enumerate(self.mask_bits):
                if (combo >> k) & 1:
                    cand |= 1 << b
            if cand >= self.array.length:
                continue
            line = self.array.address_of(cand) >> 6
            probe_of_line.setdefault(
                line, self._line_starts[self._line_of[line]]
            )
        probe_of_line[self.array.address_of(i) >> 6] = i
        return i, [probe_of_line[line] for line in sorted(probe_of_line)]

    @property
    def cover_count(self) -> int:
        """Lines touched per access (with an in-range all-zero base)."""
        return len(self._positions(0)[1])
