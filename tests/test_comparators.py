"""Tests for the Section VII detection-approach comparators."""

import pytest

from repro.compression.bzip2 import SITE_FTAB, bzip2_compress, single_block_size
from repro.compression.lz77 import SITE_HEAD, deflate_compress
from repro.compression.lzw import SITE_PRIMARY, lzw_compress
from repro.core.comparators import (
    TraceCorrelator,
    estimate_symbolic_cost,
)
from repro.core.taintchannel import TaintChannel
from repro.exec import TracingContext


class TestTraceCorrelator:
    def test_finds_zlib_head_site(self):
        correlator = TraceCorrelator(runs=5, input_len=120, seed=1)
        reports = correlator.analyze(
            lambda data: (lambda ctx: deflate_compress(data, ctx))
        )
        assert SITE_HEAD in TraceCorrelator.leaky_sites(reports)

    def test_finds_lzw_htab_site(self):
        correlator = TraceCorrelator(runs=5, input_len=100, seed=2)
        reports = correlator.analyze(
            lambda data: (lambda ctx: lzw_compress(data, ctx))
        )
        assert SITE_PRIMARY in TraceCorrelator.leaky_sites(reports)

    def test_input_independent_site_not_flagged(self):
        """A site whose trace never varies must not be reported leaky."""

        def make_target(data):
            def target(ctx):
                arr = ctx.array("fixed", 64)
                for k in range(8):
                    arr.get(k, site="constant/sweep")
                vals = ctx.input_bytes(data)
                table = ctx.array("table", 256, elem_size=4)
                for v in vals:
                    table.get(v, site="leaky/table[v]")

            return target

        correlator = TraceCorrelator(runs=6, input_len=40, seed=3)
        reports = {r.site: r for r in correlator.analyze(make_target)}
        assert not reports["constant/sweep"].leaky
        assert reports["leaky/table[v]"].leaky

    def test_reports_sorted_by_variability(self):
        correlator = TraceCorrelator(runs=4, input_len=60, seed=4)
        reports = correlator.analyze(
            lambda data: (lambda ctx: lzw_compress(data, ctx))
        )
        scores = [r.distinct_traces for r in reports]
        assert scores == sorted(scores, reverse=True)

    def test_describe_smoke(self):
        correlator = TraceCorrelator(runs=3, input_len=30, seed=5)
        reports = correlator.analyze(
            lambda data: (lambda ctx: deflate_compress(data, ctx))
        )
        assert all(r.describe() for r in reports)

    def test_no_computation_chain_in_output(self):
        """The operational contrast with TaintChannel: correlation
        output has no provenance to render."""
        correlator = TraceCorrelator(runs=3, input_len=30, seed=6)
        reports = correlator.analyze(
            lambda data: (lambda ctx: deflate_compress(data, ctx))
        )
        assert not any(hasattr(r, "addr_origin") for r in reports)


class TestSymbolicCost:
    def _trace(self, target):
        tc = TaintChannel(max_events=4_000_000)
        return tc.trace(target)

    def test_bzip2_forks_match_paper_figure(self):
        """~16 symbolic index bits per ftab write: 65,536 forks per pair
        of input bytes, the paper's infeasibility figure."""
        data = b"pairs of bytes index a 65537-entry table" * 3
        ctx = self._trace(
            lambda c: bzip2_compress(data, c, block_size=single_block_size(data))
        )
        estimate = estimate_symbolic_cost(ctx)
        # One ftab update per byte, each with a 16-bit symbolic index.
        assert estimate.log2_states_per_input_byte >= 15.0

    def test_zlib_forks_grow_linearly(self):
        data = b"every insert writes head[ins_h] symbolically" * 2
        ctx = self._trace(lambda c: deflate_compress(data, c))
        estimate = estimate_symbolic_cost(ctx)
        assert estimate.symbolic_writes >= len(data) - 2
        assert estimate.log2_states > 100  # astronomically many states

    def test_taint_only_reads_do_not_fork(self):
        def target(ctx):
            vals = ctx.input_bytes(b"\x01\x02\x03")
            table = ctx.array("t", 256, elem_size=4)
            for v in vals:
                table.get(v, site="read-only lookup")

        estimate = estimate_symbolic_cost(self._trace(target))
        assert estimate.symbolic_writes == 0
        assert estimate.log2_states == 0

    def test_describe_magnitude(self):
        data = b"abcdefgh" * 8
        ctx = self._trace(
            lambda c: bzip2_compress(data, c, block_size=single_block_size(data))
        )
        text = estimate_symbolic_cost(ctx).describe()
        assert "2^" in text and "per input byte" in text
