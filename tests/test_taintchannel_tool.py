"""Tests for the TaintChannel tool: gadget discovery on all the paper's
targets, provenance slices, report rendering, control-flow diffing."""

import pytest

from repro.compression.bzip2 import SITE_FTAB, bzip2_compress, single_block_size
from repro.compression.lz77 import SITE_HEAD, deflate_compress
from repro.compression.lzw import SITE_PRIMARY, lzw_compress
from repro.core.taintchannel import TaintChannel, avx_memcpy, target_for
from repro.core.taintchannel.provenance import (
    backward_slice,
    input_roots,
    opcode_chain,
)
from repro.crypto.aes import aes128_encrypt_block
from repro.exec import NativeContext, TracingContext


@pytest.fixture(scope="module")
def tc():
    return TaintChannel()


class TestGadgetDiscovery:
    def test_zlib_gadget_found(self, tc):
        data = b"some moderately interesting text for zlib to chew on."
        result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
        gadget = result.gadget(SITE_HEAD)
        assert gadget.count >= len(data) - 2
        assert gadget.array == "head"

    def test_zlib_leaks_entire_input(self, tc):
        data = b"lowercase ascii text stays in a narrow byte range ok"
        result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
        # every byte's taint reaches head[ins_h] above the line offset
        assert result.gadget(SITE_HEAD).leaked_tags() >= frozenset(
            range(len(data))
        )

    def test_lzw_gadget_found(self, tc):
        data = b"TOBEORNOTTOBEORTOBEORNOT"
        result = tc.analyze("ncompress", lambda ctx: lzw_compress(data, ctx))
        gadget = result.gadget(SITE_PRIMARY)
        assert gadget.count >= len(data) - 1

    def test_lzw_coverage_near_total(self, tc):
        data = b"abcdabcdabcdzzzzqqqq"
        result = tc.analyze("ncompress", lambda ctx: lzw_compress(data, ctx))
        assert result.input_coverage() > 0.9

    def test_bzip2_ftab_gadget_found(self, tc):
        # The ftab histogram runs in mainSort, i.e. on *full* blocks;
        # shrink the block size so a small input exercises it.
        data = b"bzip2 histogram leaks byte pairs via ftab accesses!"
        result = tc.analyze(
            "bzip2",
            lambda ctx: bzip2_compress(data, ctx, block_size=single_block_size(data)),
        )
        gadget = result.gadget(SITE_FTAB)
        assert gadget.count >= len(data)
        assert gadget.kinds == {"update"}

    def test_bzip2_leaks_entire_input(self, tc):
        data = b"every byte appears in two consecutive ftab indices"
        result = tc.analyze(
            "bzip2",
            lambda ctx: bzip2_compress(data, ctx, block_size=single_block_size(data)),
        )
        assert result.input_coverage() == 1.0

    def test_bzip2_ftab_gadget_found_on_input_with_a_run(self, tc):
        # RLE1 shortens the run of eight z's, so a block of len(data)
        # would never fill and would skip mainSort; the single-block
        # size follows the RLE1 output.
        data = b"a run of zzzzzzzz still reaches the ftab histogram"
        result = tc.analyze(
            "bzip2",
            lambda ctx: bzip2_compress(data, ctx, block_size=single_block_size(data)),
        )
        assert SITE_FTAB == "mainSort/ftab[j]++"
        assert result.gadget(SITE_FTAB).count >= 1

    @pytest.mark.parametrize("data", [b"aaaa", b"aaaab", b"a" * 10])
    def test_bzip2_target_runs_main_sort_on_rle1_runs(self, tc, data):
        # RLE1 lengthens or shortens these inputs; the analysis target
        # still sorts them as one full block, through the ftab gadget.
        result = tc.analyze("bzip2", target_for("bzip2", data))
        assert result.gadget(SITE_FTAB).count >= 1

    def test_bzip2_short_block_has_no_ftab_gadget(self, tc):
        # Short blocks go straight to fallbackSort: no histogram runs.
        data = b"tiny"
        result = tc.analyze("bzip2", lambda ctx: bzip2_compress(data, ctx))
        with pytest.raises(KeyError):
            result.gadget(SITE_FTAB)

    def test_aes_te_gadget_found(self, tc):
        result = tc.analyze(
            "openssl-aes",
            lambda ctx: aes128_encrypt_block(b"k" * 16, b"p" * 16, ctx),
        )
        te_gadgets = [g for g in result.gadgets if g.array.startswith("Te")]
        assert len(te_gadgets) == 4
        assert result.input_coverage() == 1.0  # all 16 pt bytes leak

    def test_summary_mentions_gadgets(self, tc):
        data = b"hello hello hello"
        result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
        text = result.summary()
        assert SITE_HEAD in text
        assert "input coverage" in text

    def test_gadget_lookup_missing_raises(self, tc):
        result = tc.analyze("nothing", lambda ctx: None)
        with pytest.raises(KeyError):
            result.gadget("no/such/site")


class TestProvenance:
    def test_slice_roots_are_input_bytes(self, tc):
        data = b"\x01\x02\x03\x04\x05"
        ctx = tc.trace(lambda c: lzw_compress(data, c))
        probe = [
            a for a in ctx.tainted_accesses() if a.site == SITE_PRIMARY
        ][0]
        roots = input_roots(probe.addr_origin)
        assert roots and all(r.source == "input" for r in roots)

    def test_lzw_chain_shape(self, tc):
        """The chain must show the Listing 2 computation: shl 9, xor."""
        data = b"\x07\x20"
        ctx = tc.trace(lambda c: lzw_compress(data, c))
        probe = [
            a for a in ctx.tainted_accesses() if a.site == SITE_PRIMARY
        ][0]
        chain = opcode_chain(probe.addr_origin)
        assert "shl" in chain and "xor" in chain

    def test_zlib_chain_shape(self, tc):
        """UPDATE_HASH: shl 5, xor, and-mask must all appear."""
        data = b"abcdef"
        ctx = tc.trace(lambda c: deflate_compress(data, c))
        acc = [a for a in ctx.tainted_accesses() if a.site == SITE_HEAD][0]
        chain = opcode_chain(acc.addr_origin)
        assert {"shl", "xor", "and"} <= set(chain)

    def test_slice_is_seq_ordered(self, tc):
        data = b"xyzw"
        ctx = tc.trace(lambda c: deflate_compress(data, c))
        acc = ctx.tainted_accesses()[0]
        seqs = [r.seq for r in backward_slice(acc.addr_origin)]
        assert seqs == sorted(seqs)

    def test_empty_slice_for_untainted(self):
        assert backward_slice(None) == []


class TestReports:
    def test_render_contains_bit_rows(self, tc):
        data = b"abcdefgh"
        result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
        text = tc.render(result, result.gadget(SITE_HEAD))
        assert "Taint-dependent memory access" in text
        assert "|15|14|13|12|11|10| 9| 8| 7| 6| 5| 4| 3| 2| 1| 0|" in text
        assert " x|" in text

    def test_render_includes_computation(self, tc):
        data = b"abcd"
        result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
        text = tc.render(result, result.gadget(SITE_HEAD))
        assert "computation (input -> pointer)" in text
        assert "read input[" in text

    def test_render_without_slice(self, tc):
        data = b"abcd"
        result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
        text = tc.render(result, result.gadget(SITE_HEAD), with_slice=False)
        assert "computation" not in text


class TestControlFlowDiscovery:
    def test_bzip2_sort_divergence_discovered(self, tc):
        """Different inputs take mainSort vs fallbackSort (Section VI)."""
        import random

        rng = random.Random(0)
        words = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta"]
        text = bytearray()
        while len(text) < 11000:
            text += rng.choice(words) + b" "
        full_block = bytes(text[:10500])  # first block full -> mainSort
        short = b"tiny file"  # -> fallbackSort

        div = tc.diff(
            lambda ctx: bzip2_compress(full_block, ctx),
            lambda ctx: bzip2_compress(short, ctx),
        )
        assert div is not None
        assert "mainSort" in str(div.left) or "fallbackSort" in str(div.right)

    def test_identical_inputs_no_divergence(self, tc):
        data = b"same input both times"
        div = tc.diff(
            lambda ctx: lzw_compress(data, ctx),
            lambda ctx: lzw_compress(data, ctx),
        )
        assert div is None

    def test_memcpy_size_divergence(self, tc):
        """Section III-B: memcpy's path reveals size mod AVX width."""

        def run(size):
            def target(ctx):
                src = ctx.array("src", 64, init=7)
                dst = ctx.array("dst", 64)
                avx_memcpy(ctx, dst, src, size)

            return target

        div = tc.diff(run(64), run(61))  # multiple of 32 vs not
        assert div is not None
        assert "byte_tail" in (str(div.left) + str(div.right))

    def test_memcpy_same_residue_no_divergence(self, tc):
        def run(size):
            def target(ctx):
                src = ctx.array("src", 96, init=1)
                dst = ctx.array("dst", 96)
                avx_memcpy(ctx, dst, src, size)

            return target

        # 32 vs 64: both pure AVX path... different chunk counts produce
        # different tick totals but identical function marker sequences.
        assert tc.diff(run(32), run(64)) is None

    def test_memcpy_copies_correctly(self):
        ctx = NativeContext()
        src = ctx.array("src", 70)
        for i in range(70):
            src.set(i, i)
        dst = ctx.array("dst", 70)
        avx_memcpy(ctx, dst, src, 70)
        assert dst.snapshot() == src.snapshot()


class TestEventBudget:
    def test_budget_applies_to_analysis(self):
        tc = TaintChannel(max_events=500)
        data = b"abcdefgh" * 200
        from repro.exec.events import TraceLimitExceeded

        with pytest.raises(TraceLimitExceeded):
            tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))


class TestDemo:
    """The module demo returns its report; printing is only for
    ``python -m repro.core.taintchannel.tool`` itself."""

    def test_demo_returns_report_without_stdout(self, capsys):
        from repro.core.taintchannel.tool import demo

        text = demo(data=b"abcdefgh" * 30, target="lzw")
        assert isinstance(text, str)
        assert "gadget" in text.lower() or "accesses" in text.lower()
        assert capsys.readouterr().out == ""

    def test_analyze_emits_no_stdout(self, capsys):
        from repro.core.taintchannel.tool import TaintChannel, target_for

        data = b"abcdefgh" * 30
        tc = TaintChannel()
        tc.analyze("lzw", target_for("lzw", data))
        assert capsys.readouterr().out == ""
