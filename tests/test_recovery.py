"""Tests for the Section IV recovery algorithms, driven by real traces
from the instrumented compressors."""

import random

import pytest

from repro.compression.bzip2.blocksort import histogram
from repro.compression.lz77 import SITE_HEAD, deflate_compress
from repro.compression.lzw import SITE_PRIMARY, SITE_SECONDARY, lzw_compress
from repro.exec import TracingContext
from repro.recovery import observed_lines, recover_lzw_input
from repro.recovery.bzip2_recover import (
    observations_from_lines,
    recover_bzip2_block,
)
from repro.recovery.zlib_recover import (
    accuracy,
    recover_direct_bits,
    recover_known_high_bits,
)


def zlib_trace(data: bytes):
    ctx = TracingContext()
    deflate_compress(data, ctx=ctx)
    lines = observed_lines(ctx, SITE_HEAD, kind="write")
    return lines, ctx.arrays["head"].base


def lzw_trace(data: bytes):
    ctx = TracingContext()
    lzw_compress(data, ctx=ctx)
    primary = [
        a
        for a in ctx.tainted_accesses()
        if a.site in (SITE_PRIMARY, SITE_SECONDARY) and a.kind == "read"
    ]
    return [a.address >> 6 for a in primary], ctx.arrays["htab"].base


def bzip2_trace(data: bytes):
    from repro.compression.bzip2 import SITE_FTAB

    ctx = TracingContext()
    block = ctx.array("block", len(data))
    for i, v in enumerate(ctx.input_bytes(data)):
        block.set(i, v)
    histogram(ctx, block, len(data))
    lines = observed_lines(ctx, SITE_FTAB)
    return lines, ctx.arrays["ftab"].base


class TestZlibRecovery:
    def test_direct_bits_correct(self):
        data = b"The DEFLATE hash chain leaks two bits per byte."
        lines, base = zlib_trace(data)
        got = recover_direct_bits(lines, base, len(data))
        for i in range(1, len(data) - 1):
            mask, bits = got[i]
            assert mask == 0b11000
            assert data[i] & mask == bits

    def test_direct_bits_are_quarter_of_input(self):
        data = bytes(range(32, 127))
        lines, base = zlib_trace(data)
        got = recover_direct_bits(lines, base, len(data))
        known_bits = sum(bin(mask).count("1") for mask, _ in got)
        assert known_bits == 2 * (len(data) - 2)

    def test_lowercase_full_recovery(self):
        data = b"thequickbrownfoxjumpsoverthelazydogandrunsaway"
        assert all(0x61 <= b <= 0x7A for b in data)
        lines, base = zlib_trace(data)
        rec = recover_known_high_bits(lines, base, len(data))
        # Everything but the final byte recovers exactly.
        assert accuracy(rec, data) >= (len(data) - 1) / len(data)
        assert rec[: len(data) - 1] == list(data[: len(data) - 1])

    def test_lowercase_recovery_longer_text(self):
        rng = random.Random(11)
        data = bytes(rng.randrange(0x61, 0x7B) for _ in range(600))
        lines, base = zlib_trace(data)
        rec = recover_known_high_bits(lines, base, len(data))
        assert accuracy(rec, data) >= 0.99

    def test_short_inputs(self):
        lines, base = zlib_trace(b"ab")
        assert recover_known_high_bits(lines, base, 2) == [None, None]

    def test_misaligned_head_rejected(self):
        with pytest.raises(ValueError):
            recover_direct_bits([0], head_base=7, n=4)


class TestLzwRecovery:
    def test_exact_recovery_among_candidates(self):
        data = b"TOBEORNOTTOBEORTOBEORNOT"
        lines, base = lzw_trace(data)
        candidates = recover_lzw_input(lines, base, len(data))
        assert data in candidates
        assert 1 <= len(candidates) <= 8

    def test_candidates_differ_only_in_first_byte_low_bits(self):
        data = b"compression is reversible, so the attacker replays it"
        lines, base = lzw_trace(data)
        candidates = recover_lzw_input(lines, base, len(data))
        assert data in candidates
        for cand in candidates:
            assert cand[1:] == data[1:]
            assert cand[0] & 0xF8 == data[0] & 0xF8

    def test_random_input_recovery(self):
        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(400))
        lines, base = lzw_trace(data)
        candidates = recover_lzw_input(lines, base, len(data))
        assert data in candidates

    def test_repetitive_input_recovery(self):
        data = b"abababababab" * 20
        lines, base = lzw_trace(data)
        assert data in recover_lzw_input(lines, base, len(data))

    def test_empty_and_single(self):
        assert recover_lzw_input([], 0, 0) == [b""]
        assert len(recover_lzw_input([], 0, 1)) == 256


class TestBzip2Recovery:
    def test_noise_free_full_recovery(self):
        data = b"burrows wheeler transforms leak their histograms"
        lines, base = bzip2_trace(data)
        obs = observations_from_lines(lines, len(data))
        rec = recover_bzip2_block(obs, base, len(data))
        assert rec.byte_accuracy(data) == 1.0
        assert rec.ambiguous_positions() == []

    def test_random_data_full_recovery(self):
        rng = random.Random(17)
        data = bytes(rng.randrange(256) for _ in range(800))
        lines, base = bzip2_trace(data)
        obs = observations_from_lines(lines, len(data))
        rec = recover_bzip2_block(obs, base, len(data))
        assert rec.bit_accuracy(data) == 1.0

    def test_missing_observations_degrade_gracefully(self):
        rng = random.Random(23)
        data = bytes(rng.randrange(256) for _ in range(400))
        lines, base = bzip2_trace(data)
        obs = observations_from_lines(lines, len(data))
        for i in range(0, len(obs), 10):  # drop 10% of probes
            obs[i] = None
        rec = recover_bzip2_block(obs, base, len(data))
        assert rec.bit_accuracy(data) > 0.95

    def test_false_positive_lines_filtered(self):
        rng = random.Random(29)
        data = bytes(rng.randrange(256) for _ in range(300))
        lines, base = bzip2_trace(data)
        obs = observations_from_lines(lines, len(data))
        # Add a spurious candidate line to a third of the observations.
        for i in range(0, len(obs), 3):
            if obs[i]:
                obs[i] = list(obs[i]) + [obs[i][0] + 7]
        rec = recover_bzip2_block(obs, base, len(data))
        assert rec.bit_accuracy(data) > 0.98

    def test_off_by_one_ambiguity_without_neighbour_constraint(self):
        """A single isolated observation can leave block[i] ambiguous
        between a low and a high value (the paper's 0x00-0x03 vs
        0xf4-0xff example) -- candidates span at most two hi values."""
        base = 0x7F0000000030  # misaligned like the paper's ftab
        from repro.recovery.bzip2_recover import _line_pairs

        for j in (0x015D, 0xF45C):
            line = (base + 4 * j) >> 6
            his = {hi for hi, _ in _line_pairs(line, base)}
            assert 1 <= len(his) <= 2

    def test_decoder_memory_is_bounded(self):
        """A noise-free 10,000-byte block decodes with a small traced
        peak (per-position candidate masks, no set per byte value)."""
        import tracemalloc

        rng = random.Random(31)
        data = bytes(rng.randrange(256) for _ in range(10_000))
        base = 0x7F0000000030
        n = len(data)
        lines = [
            (base + 4 * ((data[i] << 8) | data[(i + 1) % n])) >> 6
            for i in range(n - 1, -1, -1)
        ]
        obs = observations_from_lines(lines, n)
        tracemalloc.start()
        try:
            rec = recover_bzip2_block(obs, base, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.byte_accuracy(data) == 1.0
        assert peak < 32 * 2**20, peak

    def test_empty_input(self):
        rec = recover_bzip2_block([], 0, 0)
        assert rec.values == []
        assert rec.bit_accuracy(b"") == 1.0
