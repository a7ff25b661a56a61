"""Canonical Huffman coding for the Bzip2 pipeline.

Bzip2 proper uses six switched tables with selectors; we use a single
canonical table per block (DESIGN.md), which is still genuine Huffman
coding with the standard length-limiting rescale trick
(``hbMakeCodeLengths``-style: halve frequencies and rebuild when the
deepest code exceeds the limit).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.compression.bitio import MSBBitReader, MSBBitWriter

MAX_CODE_LEN = 20
LENGTH_FIELD_BITS = 5  # enough for lengths 0..MAX_CODE_LEN


def build_code_lengths(freqs: list[int], max_len: int = MAX_CODE_LEN) -> list[int]:
    """Optimal prefix-code lengths for ``freqs`` (0 for unused symbols),
    rescaling until no code exceeds ``max_len``."""
    weights = [max(f, 0) for f in freqs]
    present = [i for i, f in enumerate(weights) if f > 0]
    if not present:
        return [0] * len(freqs)
    if len(present) == 1:
        lengths = [0] * len(freqs)
        lengths[present[0]] = 1
        return lengths

    while True:
        lengths = _huffman_lengths(weights, present)
        if max(lengths[i] for i in present) <= max_len:
            return lengths
        # Too deep: flatten the distribution and retry (bzip2's trick).
        weights = [(w // 2) + 1 if w > 0 else 0 for w in weights]


def _huffman_lengths(weights: list[int], present: list[int]) -> list[int]:
    # Heap entries are (weight, node); node ids grow with creation, so
    # they break weight ties exactly as an insertion counter would.
    heap = [(weights[i], node) for node, i in enumerate(present)]
    heapq.heapify(heap)
    parent = [0] * (2 * len(present) - 1)
    node = len(present)
    while len(heap) > 1:
        wa, a = heapq.heappop(heap)
        wb, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (wa + wb, node))
        node += 1
    # Parents are created after their children: walk from the root down.
    depth = [0] * len(parent)
    for child in range(len(parent) - 2, -1, -1):
        depth[child] = depth[parent[child]] + 1
    lengths = [0] * len(weights)
    for leaf, i in enumerate(present):
        lengths[i] = depth[leaf]
    return lengths


def canonical_codes(lengths: list[int]) -> list[int]:
    """Assign canonical codes: symbols ordered by (length, index)."""
    codes = [0] * len(lengths)
    order = sorted(
        (i for i in range(len(lengths)) if lengths[i] > 0),
        key=lambda i: (lengths[i], i),
    )
    code = 0
    prev_len = 0
    for i in order:
        code <<= lengths[i] - prev_len
        codes[i] = code
        code += 1
        prev_len = lengths[i]
    return codes


@dataclass
class HuffmanTable:
    """Canonical table usable for both encoding and decoding."""

    lengths: list[int]
    codes: list[int]

    @classmethod
    def from_freqs(cls, freqs: list[int]) -> "HuffmanTable":
        lengths = build_code_lengths(freqs)
        return cls(lengths, canonical_codes(lengths))

    @classmethod
    def from_lengths(cls, lengths: list[int]) -> "HuffmanTable":
        return cls(lengths, canonical_codes(lengths))

    def write_lengths(self, out: MSBBitWriter) -> None:
        for length in self.lengths:
            out.write(length, LENGTH_FIELD_BITS)

    @classmethod
    def read_lengths(cls, reader: MSBBitReader, n_symbols: int) -> "HuffmanTable":
        lengths = [reader.read(LENGTH_FIELD_BITS) for _ in range(n_symbols)]
        return cls.from_lengths(lengths)

    def encode(self, out: MSBBitWriter, symbol: int) -> None:
        length = self.lengths[symbol]
        if length == 0:
            raise ValueError(f"symbol {symbol} has no code")
        out.write(self.codes[symbol], length)

    def decoder(self) -> "HuffmanDecoder":
        return HuffmanDecoder(self)


class HuffmanDecoder:
    """Limit/base canonical decoding (as bzip2's GET_MTF_VAL does)."""

    def __init__(self, table: HuffmanTable) -> None:
        self._by_length: dict[int, dict[int, int]] = {}
        for sym, length in enumerate(table.lengths):
            if length > 0:
                self._by_length.setdefault(length, {})[table.codes[sym]] = sym
        if not self._by_length:
            raise ValueError("empty Huffman table")
        self._max_len = max(self._by_length)

    def decode(self, reader: MSBBitReader) -> int:
        code = 0
        for length in range(1, self._max_len + 1):
            code = (code << 1) | reader.read_bit()
            row = self._by_length.get(length)
            if row is not None and code in row:
                return row[code]
        raise ValueError("invalid Huffman code in stream")
