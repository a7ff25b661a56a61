"""Tests for the Section VIII mitigations: correctness and the
constant-access property.  Their defeat of the end-to-end attack is the
MITIG claim (``repro.diag.claims``), gated in ``tests/test_claims.py``."""

import signal

import pytest

from repro.compression.bzip2.blocksort import FTAB_LEN, FTAB_MISALIGN, histogram
from repro.compression.lzw import lzw_compress, lzw_decompress
from repro.exec import NativeContext, TracingContext
from repro.mitigations import ObliviousTable, build_kernel
from repro.mitigations.verify import survey_plan
from repro.workloads import english_like, random_bytes


class TestObliviousTable:
    def _table(self, length=100, elem_size=8, init=0):
        ctx = NativeContext()
        arr = ctx.array("t", length, elem_size=elem_size, init=init)
        return arr, ObliviousTable(arr)

    def test_get_set_roundtrip(self):
        arr, ob = self._table()
        ob.set(37, 1234)
        assert ob.get(37) == 1234
        assert arr.get(37) == 1234

    def test_set_preserves_other_entries(self):
        arr, ob = self._table(init=5)
        ob.set(10, 99)
        snapshot = arr.snapshot()
        assert snapshot[10] == 99
        assert all(v == 5 for i, v in enumerate(snapshot) if i != 10)

    def test_add(self):
        arr, ob = self._table(init=1)
        ob.add(3, 41)
        assert arr.get(3) == 42
        assert arr.get(4) == 1

    def test_access_count_is_input_independent(self):
        """Same number of touches regardless of which index is used."""
        counts = []
        for index in (0, 50, 99):
            ctx = TracingContext()
            arr = ctx.array("t", 100, elem_size=8)
            before = ctx.plain_accesses
            ObliviousTable(arr).get(index)
            counts.append(ctx.plain_accesses - before)
        assert len(set(counts)) == 1

    def test_line_trace_is_index_independent(self):
        """The cache-line sequence must not depend on the index; observe
        the real channel by running on the enclave memory system."""

        def lines_for(index):
            touched: list[int] = []
            arr = _enclave(5, touched).array("t", 256, elem_size=8)
            ObliviousTable(arr).get(index)
            return touched

        assert lines_for(3) == lines_for(250)


def _enclave(seed: int, touched: list[int]):
    """An enclave whose every victim access appends its cache line to
    ``touched`` (the real channel, observed from the memory system)."""
    from repro.cache import Cache, CacheConfig
    from repro.memsys import AddressSpace
    from repro.sgx import Enclave

    return Enclave(
        AddressSpace(seed=seed),
        Cache(CacheConfig()),
        env_hook=lambda paddr, kind: touched.append(paddr >> 6),
    )


def _oblivious_table(site: str, array):
    return ObliviousTable(array, site=site)


class TestObliviousHistogram:
    """The Listing 3 loop over an oblivious ``ftab``: the Section VIII
    victim ``run_attack(..., mitigated=True)`` runs."""

    def _ftab(self, ctx):
        return ctx.array("ftab", FTAB_LEN, elem_size=4, misalign=FTAB_MISALIGN)

    def _histogram_lines(self, data: bytes, oblivious: bool) -> list[int]:
        touched: list[int] = []
        enclave = _enclave(7, touched)
        block = enclave.array("block", len(data))
        block.load(list(data))
        ftab = self._ftab(enclave)
        histogram(
            enclave, block, len(data),
            ftab=ObliviousTable(ftab) if oblivious else ftab,
        )
        return touched

    def test_same_counts_as_vulnerable_version(self):
        data = random_bytes(120, seed=1)
        ctx_a, ctx_b = NativeContext(), NativeContext()
        block_a = ctx_a.array("block", len(data))
        block_b = ctx_b.array("block", len(data))
        block_a.load(list(data))
        block_b.load(list(data))
        plain = histogram(ctx_a, block_a, len(data)).snapshot()
        ftab = self._ftab(ctx_b)
        histogram(ctx_b, block_b, len(data), ftab=ObliviousTable(ftab))
        assert ftab.snapshot() == plain

    def test_ftab_line_trace_is_input_independent(self):
        """The full victim line sequence is identical across inputs."""
        lines_a = self._histogram_lines(b"\x00\x11\x22\x33", oblivious=True)
        lines_b = self._histogram_lines(b"\xff\xee\xdd\xcc", oblivious=True)
        assert lines_a and lines_a == lines_b

    def test_vulnerable_histogram_trace_is_input_dependent(self):
        """Control: the Listing 3 loop's line trace differs by input."""
        assert self._histogram_lines(
            b"\x00\x11\x22\x33", oblivious=False
        ) != self._histogram_lines(b"\xff\xee\xdd\xcc", oblivious=False)


class TestObliviousLzw:
    """``lzw_compress`` over a reduced table whose probes go through
    oblivious covers (its ``hash_bits``/``wrap_table`` seam)."""

    def _compress(self, data: bytes, ctx=None, hash_bits: int = 12) -> bytes:
        return lzw_compress(
            data, ctx, hash_bits=hash_bits, wrap_table=_oblivious_table
        )

    def _assert_same_stream(self, data: bytes) -> None:
        blob = self._compress(data)
        assert blob == lzw_compress(data)
        assert lzw_decompress(blob) == data

    def test_roundtrip_with_standard_decompressor(self):
        self._assert_same_stream(
            b"the oblivious compressor emits ordinary lzw streams"
        )

    def test_roundtrip_repetitive(self):
        self._assert_same_stream(b"abcabc" * 30)

    def test_empty(self):
        self._assert_same_stream(b"")

    def test_output_differs_from_fast_path_only_in_timing(self):
        # Same dictionary decisions -> the same compressed bytes as the
        # unmitigated compressor while the reduced table has room.
        self._assert_same_stream(b"to be or not to be")
        self._assert_same_stream(english_like(600, seed=2))

    def _lzw_lines(self, data: bytes, oblivious: bool) -> list[int]:
        touched: list[int] = []
        enclave = _enclave(6, touched)
        if oblivious:
            self._compress(data, ctx=enclave, hash_bits=8)
        else:
            lzw_compress(data, ctx=enclave)
        return touched

    def test_htab_line_trace_is_input_independent(self):
        """The full victim cache-line sequence (the real channel) must be
        identical for different same-length inputs."""
        assert self._lzw_lines(b"ab", oblivious=True) == self._lzw_lines(
            b"zq", oblivious=True
        )

    def test_vulnerable_lzw_trace_is_input_dependent(self):
        """Control: the unmitigated compressor's line trace differs."""
        assert self._lzw_lines(b"ab", oblivious=False) != self._lzw_lines(
            b"zq", oblivious=False
        )

    def test_full_reduced_table_raises_within_budget(self):
        """A mitigated kernel whose ``1 << hash_bits`` table fills stops
        with an error instead of probing forever."""
        plan, _ = survey_plan("lzw", random_bytes(60, seed=9))
        assert plan.mitigated_sites()
        kernel = build_kernel("lzw", plan, hash_bits=8)

        def expire(signum, frame):
            raise TimeoutError("mitigated LZW kernel ran past 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 20.0)
        try:
            with pytest.raises(RuntimeError, match="hash table full"):
                kernel.run_native(random_bytes(400, seed=1))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

