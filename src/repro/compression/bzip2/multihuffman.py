"""Multi-table Huffman coding with selectors (bzip2's sendMTFValues).

Real bzip2 does not use one Huffman table per block: it splits the
symbol stream into groups of 50, maintains up to six tables, and
iteratively refits each table to the groups that chose it; a selector
stream (MTF + unary coded) records which table each group used.  This
module implements that scheme faithfully:

* group count by alphabet size (2..6, bzip2's thresholds),
* ``N_ITERS`` refinement passes of assign-to-cheapest / refit,
* bzip2's delta serialisation of code lengths (5-bit start, then
  1+sign-bit steps per symbol),
* unary-coded, MTF-transformed selectors.

The block pipeline can use either this or the single-table coder; a
header bit records the choice so the decompressor is self-describing.
"""

from __future__ import annotations

import numpy as np

from repro.compression.bitio import MSBBitReader, MSBBitWriter
from repro.compression.bzip2.huffman import (
    HuffmanTable,
    build_code_lengths,
)

GROUP_SIZE = 50
N_ITERS = 4
MAX_GROUPS = 6


def choose_n_groups(n_symbols_in_stream: int) -> int:
    """bzip2's table-count heuristic (by stream length)."""
    if n_symbols_in_stream < 200:
        return 2
    if n_symbols_in_stream < 600:
        return 3
    if n_symbols_in_stream < 1200:
        return 4
    if n_symbols_in_stream < 2400:
        return 5
    return MAX_GROUPS


def _initial_lengths(
    freqs: list[int], n_groups: int, alpha_size: int
) -> list[list[int]]:
    """bzip2's initial partition: slice the alphabet into frequency
    bands and give each table short codes inside its band."""
    total = sum(freqs)
    lengths: list[list[int]] = []
    remaining_freq = total
    lo = 0
    for part in range(n_groups, 0, -1):
        target = remaining_freq // part
        hi = lo
        acc = 0
        while hi < alpha_size and (acc < target or hi == lo):
            acc += freqs[hi]
            hi += 1
        table = [15] * alpha_size
        for s in range(lo, hi):
            table[s] = 0
        lengths.append(table)
        remaining_freq -= acc
        lo = hi
    return lengths


def fit_tables(
    symbols: list[int], alpha_size: int, n_groups: int
) -> tuple[list[list[int]], list[int]]:
    """Iteratively fit ``n_groups`` code-length tables to the stream.

    Returns ``(tables_lengths, selectors)`` where ``selectors[g]`` is
    the table used by the g-th group of 50 symbols.
    """
    n_sel = -(-len(symbols) // GROUP_SIZE)
    flat = np.arange(len(symbols)) // GROUP_SIZE * alpha_size
    flat += np.asarray(symbols, dtype=np.int64)
    counts = np.bincount(flat, minlength=n_sel * alpha_size)
    counts = counts.reshape(n_sel, alpha_size)
    tables = _initial_lengths(counts.sum(axis=0).tolist(), n_groups, alpha_size)

    selectors = np.zeros(n_sel, dtype=np.int64)
    for _ in range(N_ITERS):
        # Group cost under each table; argmin keeps the first minimum.
        selectors = (counts @ np.array(tables, dtype=np.int64).T).argmin(axis=1)
        table_freqs = np.zeros((n_groups, alpha_size), dtype=np.int64)
        np.add.at(table_freqs, selectors, counts)
        # Keep every symbol encodable by every table (freq >= 1), as
        # bzip2 does via its +1 fudge.
        tables = [build_code_lengths((f + 1).tolist()) for f in table_freqs]
    return tables, selectors.tolist()


# -- serialisation (bzip2's format) ---------------------------------------


def write_lengths_delta(out: MSBBitWriter, lengths: list[int]) -> None:
    """5-bit starting length, then per symbol a sequence of
    ``1 + direction`` steps terminated by ``0`` (bzip2's scheme)."""
    curr = lengths[0]
    out.write(curr, 5)
    for length in lengths:
        while curr < length:
            out.write(0b10, 2)
            curr += 1
        while curr > length:
            out.write(0b11, 2)
            curr -= 1
        out.write(0, 1)


def read_lengths_delta(reader: MSBBitReader, alpha_size: int) -> list[int]:
    """Invert :func:`write_lengths_delta`."""
    curr = reader.read(5)
    lengths = []
    for _ in range(alpha_size):
        while reader.read_bit():
            if reader.read_bit():
                curr -= 1
            else:
                curr += 1
        lengths.append(curr)
    return lengths


def _mtf_encode_selectors(selectors: list[int], n_groups: int) -> list[int]:
    order = list(range(n_groups))
    out = []
    for sel in selectors:
        idx = order.index(sel)
        out.append(idx)
        order.pop(idx)
        order.insert(0, sel)
    return out


def _mtf_decode_selectors(coded: list[int], n_groups: int) -> list[int]:
    order = list(range(n_groups))
    out = []
    for idx in coded:
        sel = order.pop(idx)
        order.insert(0, sel)
        out.append(sel)
    return out


def encode_stream(
    out: MSBBitWriter, symbols: list[int], alpha_size: int
) -> None:
    """Write the full multi-table coded stream (tables, selectors,
    symbols).  ``symbols`` must end with EOB.  Raises ``ValueError`` if
    the stream needs more selectors than the 15-bit count holds."""
    if -(-len(symbols) // GROUP_SIZE) >= 1 << 15:
        raise ValueError(f"{len(symbols)} symbols need 2**15+ selectors")
    n_groups = choose_n_groups(len(symbols))
    tables_lengths, selectors = fit_tables(symbols, alpha_size, n_groups)
    tables = [HuffmanTable.from_lengths(l) for l in tables_lengths]

    out.write(n_groups, 3)
    out.write(len(selectors), 15)
    for idx in _mtf_encode_selectors(selectors, n_groups):
        out.write((1 << idx) - 1, idx)  # unary: idx ones...
        out.write(0, 1)  # ...then a zero
    for lengths in tables_lengths:
        write_lengths_delta(out, lengths)

    for g, start in enumerate(range(0, len(symbols), GROUP_SIZE)):
        table = tables[selectors[g]]
        for s in symbols[start : start + GROUP_SIZE]:
            table.encode(out, s)


def decode_stream(
    reader: MSBBitReader, alpha_size: int, eob: int
) -> list[int]:
    """Invert :func:`encode_stream`; stops at (and includes) EOB."""
    n_groups = reader.read(3)
    n_selectors = reader.read(15)
    coded = []
    for _ in range(n_selectors):
        idx = 0
        while reader.read_bit():
            idx += 1
            if idx >= n_groups:
                raise ValueError("selector index out of range")
        coded.append(idx)
    selectors = _mtf_decode_selectors(coded, n_groups)
    decoders = [
        HuffmanTable.from_lengths(
            read_lengths_delta(reader, alpha_size)
        ).decoder()
        for _ in range(n_groups)
    ]

    symbols: list[int] = []
    group = 0
    while True:
        if group >= len(selectors):
            raise ValueError("symbol stream overran its selectors")
        decoder = decoders[selectors[group]]
        for _ in range(GROUP_SIZE):
            s = decoder.decode(reader)
            symbols.append(s)
            if s == eob:
                return symbols
        group += 1
