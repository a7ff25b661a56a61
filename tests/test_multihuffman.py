"""Tests for bzip2's multi-table Huffman coding with selectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitio import MSBBitReader, MSBBitWriter
from repro.compression.bzip2.multihuffman import (
    GROUP_SIZE,
    _mtf_decode_selectors,
    _mtf_encode_selectors,
    choose_n_groups,
    decode_stream,
    encode_stream,
    fit_tables,
    read_lengths_delta,
    write_lengths_delta,
)
from repro.compression.bzip2.pipeline import bzip2_compress, bzip2_decompress


def make_stream(n: int, alpha: int, seed: int, eob: int) -> list[int]:
    """A symbol stream with locality (phases prefer symbol subsets),
    which is what multi-table coding exists to exploit."""
    rng = random.Random(seed)
    out = []
    while len(out) < n - 1:
        subset = rng.sample(range(eob), k=max(2, alpha // 3))
        for _ in range(min(120, n - 1 - len(out))):
            out.append(rng.choice(subset))
    out.append(eob)
    return out


class TestGroupHeuristic:
    @pytest.mark.parametrize(
        "n,expected", [(10, 2), (300, 3), (800, 4), (2000, 5), (9000, 6)]
    )
    def test_thresholds(self, n, expected):
        assert choose_n_groups(n) == expected


class TestLengthDelta:
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, lengths):
        out = MSBBitWriter()
        write_lengths_delta(out, lengths)
        got = read_lengths_delta(MSBBitReader(out.getvalue()), len(lengths))
        assert got == lengths


class TestSelectorMtf:
    @given(st.lists(st.integers(0, 5), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, selectors):
        coded = _mtf_encode_selectors(selectors, 6)
        assert _mtf_decode_selectors(coded, 6) == selectors


class TestFitTables:
    def test_selector_per_group(self):
        eob = 9
        symbols = make_stream(500, 10, seed=1, eob=eob)
        tables, selectors = fit_tables(symbols, 10, 3)
        assert len(selectors) == -(-len(symbols) // GROUP_SIZE)
        assert all(0 <= s < 3 for s in selectors)
        assert len(tables) == 3

    def test_every_symbol_encodable_by_every_table(self):
        eob = 7
        symbols = make_stream(300, 8, seed=2, eob=eob)
        tables, _ = fit_tables(symbols, 8, 2)
        for lengths in tables:
            assert all(l > 0 for l in lengths)

    def test_locality_makes_tables_differ(self):
        eob = 19
        symbols = make_stream(3000, 20, seed=3, eob=eob)
        tables, selectors = fit_tables(symbols, 20, 6)
        assert len({tuple(t) for t in tables}) > 1
        assert len(set(selectors)) > 1


class TestStreamRoundTrip:
    @pytest.mark.parametrize("n,alpha", [(60, 5), (400, 12), (3000, 30)])
    def test_roundtrip(self, n, alpha):
        eob = alpha - 1
        symbols = make_stream(n, alpha, seed=n, eob=eob)
        out = MSBBitWriter()
        encode_stream(out, symbols, alpha)
        got = decode_stream(MSBBitReader(out.getvalue()), alpha, eob)
        assert got == symbols

    @given(st.integers(2, 25), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, alpha, seed):
        eob = alpha - 1
        rng = random.Random(seed)
        symbols = [rng.randrange(eob) for _ in range(rng.randrange(1, 200))]
        symbols.append(eob)
        out = MSBBitWriter()
        encode_stream(out, symbols, alpha)
        got = decode_stream(MSBBitReader(out.getvalue()), alpha, eob)
        assert got == symbols


class TestPipelineIntegration:
    def test_both_schemes_roundtrip(self):
        data = b"switching tables between symbol groups " * 120
        for multi in (True, False):
            blob = bzip2_compress(data, multi_huffman=multi)
            assert bzip2_decompress(blob) == data

    def test_multi_table_helps_on_phased_symbol_stream(self):
        # A symbol stream whose statistics shift between groups: six
        # switched tables beat one global table.  (Measured at the
        # coding layer: the BWT upstream would reshuffle input-level
        # phases, which is why the comparison is done here.)
        from repro.compression.bzip2.huffman import HuffmanTable

        alpha = 30
        eob = alpha - 1
        symbols = make_stream(6000, alpha, seed=8, eob=eob)

        multi_out = MSBBitWriter()
        encode_stream(multi_out, symbols, alpha)
        multi_bits = len(multi_out.getvalue())

        freqs = [0] * alpha
        for s in symbols:
            freqs[s] += 1
        table = HuffmanTable.from_freqs(freqs)
        single_out = MSBBitWriter()
        table.write_lengths(single_out)
        for s in symbols:
            table.encode(single_out, s)
        single_bits = len(single_out.getvalue())

        assert multi_bits < single_bits

    def test_scheme_flag_is_self_describing(self):
        data = b"no external knowledge needed to decode"
        mixed = [
            bzip2_compress(data, multi_huffman=True),
            bzip2_compress(data, multi_huffman=False),
        ]
        assert all(bzip2_decompress(b) == data for b in mixed)
        assert mixed[0] != mixed[1]


@pytest.mark.parametrize("n_groups_of_50", [1 << 15, (1 << 15) + 1])
def test_encode_stream_rejects_selector_count_overflow(n_groups_of_50):
    """The selector count is written in 15 bits; a stream needing 2**15
    or more selectors must fail loudly, before any table fitting, rather
    than write a count that wraps and decodes as garbage."""
    symbols = [0] * (GROUP_SIZE * (n_groups_of_50 - 1) + 1)
    with pytest.raises(ValueError, match="selectors"):
        encode_stream(MSBBitWriter(), symbols, 3)
