"""Property and unit tests for the binary trace serialization."""

import contextlib
import io
import signal
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint
from repro.traces import (
    FingerprintCapture,
    OracleProbe,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
    TraceFormatError,
    TraceWriter,
    count_trace_records,
    serialize_records,
)
from repro.traces.columns import read_trace_columns
from repro.traces.format import (
    _CHUNK_HEADER,
    _HEADER,
    MAGIC,
    MAX_FINGERPRINT_SAMPLES,
    MAX_TAINT_BITS,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from tests.ztrc_reference import (
    ReferenceReader,
    decode_bittaint,
    deserialize_records,
    read_svarint,
    read_trace,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def bittaints() -> st.SearchStrategy[BitTaint]:
    entry = st.tuples(
        st.integers(min_value=0, max_value=80),
        st.frozensets(st.integers(min_value=0, max_value=40_000),
                      min_size=1, max_size=4),
    )
    return st.builds(
        lambda entries: BitTaint(dict(entries)),
        st.lists(entry, max_size=5, unique_by=lambda e: e[0]),
    )


def memory_accesses() -> st.SearchStrategy[MemoryAccess]:
    return st.builds(
        MemoryAccess,
        seq=st.integers(min_value=0, max_value=1 << 40),
        kind=st.sampled_from(["read", "write", "update"]),
        array=st.sampled_from(["head", "htab", "ftab", "Te0", "block"]),
        index=st.integers(min_value=-(1 << 20), max_value=1 << 34),
        elem_size=st.sampled_from([1, 2, 4, 8]),
        # >32-bit addresses are the common case (the heap base is 47-bit)
        address=st.integers(min_value=0, max_value=(1 << 48) - 1),
        addr_taint=bittaints(),
        value_taint=bittaints(),
        site=st.sampled_from(
            ["deflate_slow/head[ins_h]", "lzw/htab[hp]", "mainSort/ftab", ""]
        ),
    )


def fingerprint_captures() -> st.SearchStrategy[FingerprintCapture]:
    def build(label, seed, rows, cols, bits):
        rng = np.random.default_rng(bits)
        trace = (rng.random((rows, cols)) < 0.2).astype(np.int8)
        return FingerprintCapture(label=label, capture_seed=seed, trace=trace)

    return st.builds(
        build,
        label=st.integers(min_value=-5, max_value=30),
        seed=st.integers(min_value=0, max_value=(1 << 63) - 1),
        rows=st.integers(min_value=1, max_value=3),
        cols=st.integers(min_value=1, max_value=400),
        bits=st.integers(min_value=0, max_value=1 << 32),
    )


def _same_access(a: MemoryAccess, b: MemoryAccess) -> bool:
    return (
        a.seq == b.seq
        and a.kind == b.kind
        and a.array == b.array
        and a.index == b.index
        and a.elem_size == b.elem_size
        and a.address == b.address
        and a.site == b.site
        and a.addr_taint == b.addr_taint
        and a.value_taint == b.value_taint
    )


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
class TestVarints:
    @given(st.integers(min_value=0, max_value=1 << 200))
    def test_uvarint_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        got, pos = read_uvarint(memoryview(bytes(out)), 0)
        assert got == value and pos == len(out)

    @given(st.integers(min_value=-(1 << 100), max_value=1 << 100))
    def test_svarint_round_trip(self, value):
        out = bytearray()
        write_svarint(out, value)
        got, pos = read_svarint(memoryview(bytes(out)), 0)
        assert got == value and pos == len(out)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_small_values_are_one_byte(self):
        out = bytearray()
        write_uvarint(out, 1)
        write_svarint(out, -1)
        assert len(out) == 2


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestMemoryRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(memory_accesses(), max_size=60))
    def test_serialize_deserialize_identity(self, records):
        blob = serialize_records(SPECIES_MEMORY, records, chunk_records=7)
        back = deserialize_records(blob)
        assert len(back) == len(records)
        assert all(_same_access(a, b) for a, b in zip(records, back))

    def test_empty_trace(self):
        blob = serialize_records(SPECIES_MEMORY, [])
        assert deserialize_records(blob) == []

    def test_chunk_boundaries_do_not_matter(self):
        records = [
            MemoryAccess(seq=i, kind="read", array="head", index=i,
                         elem_size=2, address=0x7F00_0000_0000 + 64 * i,
                         site="s")
            for i in range(100)
        ]
        blobs = {
            serialize_records(SPECIES_MEMORY, records, chunk_records=n)
            for n in (1, 3, 100, 4096)
        }
        decoded = [deserialize_records(b) for b in blobs]
        for back in decoded:
            assert all(_same_access(a, b) for a, b in zip(records, back))

    def test_tainted_flag_survives(self):
        record = MemoryAccess(
            seq=1, kind="read", array="htab", index=9, elem_size=8,
            address=1 << 45, addr_taint=BitTaint.byte(3, lo_bit=9),
            site="lzw/htab[hp]",
        )
        (back,) = deserialize_records(
            serialize_records(SPECIES_MEMORY, [record])
        )
        assert bool(back.addr_taint)
        assert back.addr_taint.bits_of_tag(3) == list(range(9, 17))
        assert back.cache_line == record.cache_line


class TestFingerprintRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(fingerprint_captures(), max_size=10))
    def test_serialize_deserialize_identity(self, captures):
        blob = serialize_records(SPECIES_FINGERPRINT, captures, chunk_records=3)
        assert deserialize_records(blob) == captures

    def test_all_zero_and_all_one_tensors(self):
        captures = [
            FingerprintCapture(0, 1, np.zeros((2, 10_000), dtype=np.int8)),
            FingerprintCapture(1, 2, np.ones((2, 10_000), dtype=np.int8)),
        ]
        blob = serialize_records(SPECIES_FINGERPRINT, captures)
        assert deserialize_records(blob) == captures
        # Long constant runs compress to a handful of bytes.
        assert len(blob) < 100

    def test_rejects_non_boolean_tensor(self):
        capture = FingerprintCapture(0, 0, np.full((2, 4), 7, dtype=np.int8))
        with pytest.raises(ValueError):
            serialize_records(SPECIES_FINGERPRINT, [capture])

    @pytest.mark.parametrize(
        "samples",
        [
            np.array([[0, 256]], dtype=np.int16),
            np.array([[0.5, 1.0]]),
            np.array([[1, -255]], dtype=np.int16),
        ],
        ids=["int16-256", "float-half", "int16-minus-255"],
    )
    def test_rejects_samples_an_int8_cast_would_rewrite(self, samples):
        # Cast to int8 these read 0/1 (256 -> 0, 0.5 -> 0, -255 -> 1):
        # the check must see the caller's values, not the cast's.
        capture = FingerprintCapture(0, 0, samples)
        with pytest.raises(ValueError, match="0/1"):
            serialize_records(SPECIES_FINGERPRINT, [capture])

    def test_rejects_seed_past_int64(self):
        # The columnar reader keeps seeds in an int64 column.
        capture = FingerprintCapture(0, 1 << 63, np.zeros((1, 4), dtype=np.int8))
        with pytest.raises(ValueError, match="capture seed"):
            serialize_records(SPECIES_FINGERPRINT, [capture])


class TestFingerprintSizeBound:
    """A crafted fingerprint record header must make neither the reader
    nor the reference decoder allocate its claimed tensor."""

    @staticmethod
    def _crafted_file(tmp_path):
        # One v2 chunk holding one record: label 0, seed 0, rows 1,
        # cols 2**34, start value 0, one run of 2**34 samples (16 GiB).
        record = bytearray([0, 0, 1])
        write_uvarint(record, 1 << 34)
        record += bytes([0, 1])
        write_uvarint(record, 1 << 34)
        payload = bytearray([0, 1])  # no new strings, one record
        directory = bytearray()
        write_uvarint(directory, len(record) << 2)
        write_uvarint(payload, len(directory))
        payload += directory + record
        blob = (
            _HEADER.pack(MAGIC, 2, 2, 0)
            + _CHUNK_HEADER.pack(len(payload), zlib.crc32(payload))
            + bytes(payload)
        )
        assert len(blob) == 35
        path = tmp_path / "crafted.trc"
        path.write_bytes(blob)
        return path

    def test_object_reader_rejects_oversized_record(self, tmp_path):
        path = self._crafted_file(tmp_path)
        with pytest.raises(TraceFormatError, match="sample bound"):
            read_trace(path)

    def test_columnar_reader_rejects_oversized_record(self, tmp_path):
        path = self._crafted_file(tmp_path)
        with pytest.raises(TraceFormatError, match="sample bound"):
            read_trace_columns(path).traces

    def test_writer_refuses_oversized_record(self):
        capture = FingerprintCapture(
            0, 0, np.zeros((1, MAX_FINGERPRINT_SAMPLES + 1), dtype=np.int8)
        )
        with pytest.raises(TraceFormatError, match="sample bound"):
            serialize_records(SPECIES_FINGERPRINT, [capture])


class TestTaintRunBound:
    """A crafted taint run must not make the reference decoder expand it
    bit by bit; the reader never parses it."""

    @staticmethod
    def _crafted_file(tmp_path):
        # One chunk, one memory record whose address taint is a single
        # run of 2**40 bits carrying tag 0.  String table: "s".
        record = bytearray([0, 0, 0, 0, 1])  # seq, kind, array, index, elem_size
        write_svarint(record, 64)  # address
        record += bytes([0, 1, 0])  # site; addr taint: one run at gap 0
        write_uvarint(record, 1 << 40)
        record += bytes([1, 0, 0])  # one tag (0); no value taint
        payload = bytearray([1, 1]) + b"s" + bytes([1])  # prelude, one record
        directory = bytearray()
        write_uvarint(directory, (len(record) << 2) | 0b10)
        write_uvarint(payload, len(directory))
        payload += directory + record
        blob = (
            _HEADER.pack(MAGIC, 2, 1, 0)
            + _CHUNK_HEADER.pack(len(payload), zlib.crc32(payload))
            + bytes(payload)
        )
        assert len(blob) == 41
        path = tmp_path / "crafted.trc"
        path.write_bytes(blob)
        return path

    def test_object_reader_rejects_huge_run_quickly(self, tmp_path):
        path = self._crafted_file(tmp_path)
        with _time_limit(1.0), pytest.raises(TraceFormatError, match="taint run"):
            read_trace(path)

    def test_columnar_reader_skips_taint_payloads(self, tmp_path):
        cols = read_trace_columns(self._crafted_file(tmp_path))
        assert cols.n == 1
        assert cols.addr_tainted.tolist() == [True]
        assert cols.address.tolist() == [64]

    def test_writer_refuses_taint_past_the_bound(self):
        inside = MemoryAccess(
            seq=1, addr_taint=BitTaint.of_bits(0, [MAX_TAINT_BITS - 1])
        )
        (back,) = deserialize_records(serialize_records(SPECIES_MEMORY, [inside]))
        assert _same_access(back, inside)
        outside = MemoryAccess(
            seq=1, value_taint=BitTaint.of_bits(0, [MAX_TAINT_BITS])
        )
        with pytest.raises(ValueError, match="taint"):
            serialize_records(SPECIES_MEMORY, [outside])

    def test_zero_tag_run_decodes_to_no_taint(self):
        # The writer never emits a run without tags; a crafted one
        # decodes to untainted bits rather than a truthy empty taint.
        # One run of 8 bits without tags; then two runs: bits 0-3
        # without tags, bit 4 with tag 5.
        blob = bytes([1, 0, 8, 0] + [2, 0, 4, 0, 0, 1, 1, 5])
        empty, pos = decode_bittaint(memoryview(blob), 0)
        assert not empty and pos == 4
        taint, pos = decode_bittaint(memoryview(blob), pos)
        assert taint == BitTaint.of_bits(5, [4]) and pos == len(blob)


# ----------------------------------------------------------------------
# Trust boundary: damaged payloads parse or raise TraceFormatError
# ----------------------------------------------------------------------
_FUZZ_SAMPLES = {
    SPECIES_MEMORY: [
        MemoryAccess(
            seq=3 * i, kind=("read", "write")[i % 2],
            array=("head", "htab")[i % 2], index=i * 17, elem_size=2,
            address=0x7F00_0000_0000 + 64 * i,
            addr_taint=BitTaint.byte(i, lo_bit=6) if i % 3 else BitTaint.empty(),
            value_taint=BitTaint.of_bits(i + 1, [0, 2, 9]),
            site=("deflate_slow/head[ins_h]", "lzw/htab[hp]")[i % 2],
        )
        for i in range(6)
    ] + [
        # Two-byte gap and length varints ending just under the taint
        # bound: damage to either high byte moves the run past it.
        MemoryAccess(seq=20, addr_taint=BitTaint.of_bits(9, range(600, 1000)),
                     value_taint=BitTaint.of_bits(9, range(600, 1000)))
    ],
    SPECIES_FINGERPRINT: [
        FingerprintCapture(
            label=i, capture_seed=1000 + i,
            trace=(np.arange(48).reshape(2, 24) % (i + 3) == 0).astype(np.int8),
        )
        for i in range(3)
    ],
    SPECIES_ORACLE: [
        OracleProbe(step=i, label=("confirm:a", "half:bc")[i % 2],
                    probe_len=30 + i, observation=-1.5 * i, queries=4 * i + 1)
        for i in range(4)
    ],
}


def _payload_offsets(blob: bytes) -> list[int]:
    """Byte offsets of every chunk payload byte (not the chunk headers)."""
    offsets, pos = [], _HEADER.size
    while pos < len(blob):
        length, _ = _CHUNK_HEADER.unpack_from(blob, pos)
        pos += _CHUNK_HEADER.size
        offsets.extend(range(pos, pos + length))
        pos += length
    return offsets


def _reseal(blob: bytearray) -> bytes:
    """Recompute every chunk CRC, so damage reaches the decoders."""
    pos = _HEADER.size
    while pos < len(blob):
        length, _ = _CHUNK_HEADER.unpack_from(blob, pos)
        start = pos + _CHUNK_HEADER.size
        crc = zlib.crc32(bytes(blob[start : start + length]))
        _CHUNK_HEADER.pack_into(blob, pos, length, crc)
        pos = start + length
    return bytes(blob)


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Turn a decode that runs past ``seconds`` into a test failure
    instead of a hung suite."""

    def expire(signum, frame):
        raise TimeoutError(f"decode ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _read_objects(path) -> None:
    for record in read_trace(path):
        if isinstance(record, MemoryAccess):
            # The bound that caps the per-bit taint expansion holds on
            # every record that decodes.
            bits = record.addr_taint.tainted_bits() + record.value_taint.tainted_bits()
            assert all(bit < MAX_TAINT_BITS for bit in bits)


def _columns_of(blob: bytes):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.trc"
        path.write_bytes(blob)
        return read_trace_columns(path)


def _read_columns(path) -> None:
    cols = read_trace_columns(path)
    if cols.species == SPECIES_FINGERPRINT:
        cols.traces  # materialise the run-length form too


class TestTrustBoundaryFuzz:
    """The reader, the record counter and the reference decoder each
    either return or raise :class:`TraceFormatError` on a damaged
    payload of any species; nothing else escapes and nothing hangs."""

    @pytest.mark.parametrize(
        "species", [SPECIES_MEMORY, SPECIES_FINGERPRINT, SPECIES_ORACLE]
    )
    @settings(max_examples=300, deadline=1000)
    @given(data=st.data())
    def test_mutated_payload_parses_or_raises_typed_error(self, species, data):
        blob = serialize_records(species, _FUZZ_SAMPLES[species], chunk_records=2)
        offsets = _payload_offsets(blob)
        edits = data.draw(
            st.lists(
                st.tuples(st.sampled_from(offsets), st.integers(0, 255)),
                min_size=1, max_size=3,
            )
        )
        damaged = bytearray(blob)
        for offset, value in edits:
            damaged[offset] = value
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.trc"
            path.write_bytes(_reseal(damaged))
            for read in (_read_columns, count_trace_records, _read_objects):
                with _time_limit(2.0):
                    try:
                        read(path)
                    except TraceFormatError:
                        pass


# ----------------------------------------------------------------------
# Corruption and misuse
# ----------------------------------------------------------------------
class TestCorruption:
    def _blob(self):
        records = [
            MemoryAccess(seq=i, kind="write", array="ftab", index=i,
                         elem_size=4, address=(1 << 44) + 4 * i, site="ftab")
            for i in range(50)
        ]
        return serialize_records(SPECIES_MEMORY, records)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_flipped_payload_byte_is_detected(self, data):
        blob = bytearray(self._blob())
        # Bytes past the header are covered by chunk CRCs (the header
        # has its own magic/version checks; its reserved byte is only
        # covered by the store-level sha256).
        offset = data.draw(
            st.integers(min_value=_HEADER.size, max_value=len(blob) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[offset] ^= 1 << bit
        with pytest.raises(TraceFormatError):
            deserialize_records(bytes(blob))
        with pytest.raises(TraceFormatError):
            _columns_of(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(self._blob())
        blob[0] ^= 0xFF
        with pytest.raises(TraceFormatError, match="magic"):
            deserialize_records(bytes(blob))
        with pytest.raises(TraceFormatError, match="magic"):
            _columns_of(bytes(blob))

    def test_unsupported_version(self, tmp_path):
        # A version-1 file (no record directory) is re-captured, not read.
        for version in (2 ^ 0xFF, 1):
            blob = bytearray(self._blob())
            blob[4] = version
            with pytest.raises(TraceFormatError, match="version"):
                deserialize_records(bytes(blob))
            path = tmp_path / "t.trc"
            path.write_bytes(bytes(blob))
            with pytest.raises(TraceFormatError, match="version"):
                read_trace_columns(path)

    def test_truncated_file(self):
        blob = self._blob()
        with pytest.raises(TraceFormatError, match="truncated"):
            deserialize_records(blob[: len(blob) - 3])
        with pytest.raises(TraceFormatError, match="truncated"):
            _columns_of(blob[: len(blob) - 3])

    def test_unknown_species_rejected_at_write(self):
        with pytest.raises(ValueError, match="species"):
            serialize_records("quantum", [])

    def test_reader_is_single_pass(self):
        reader = ReferenceReader(io.BytesIO(self._blob()))
        assert len(list(reader)) == 50
        with pytest.raises(ValueError, match="single-pass"):
            list(reader)

    def test_writer_refuses_append_after_close(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer, SPECIES_MEMORY)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(MemoryAccess(seq=1))


class TestCompactness:
    def test_bzip2_scale_trace_stays_small(self):
        """A 10 KB-input bzip2 histogram trace is ~10k sequential
        accesses; delta+varint keeps it to a few bytes per record."""
        records = [
            MemoryAccess(
                seq=i + 1, kind="update", array="ftab", index=(i * 257) % 65536,
                elem_size=4, address=(0x7F00_0000_0000 + 4 * ((i * 257) % 65536)),
                addr_taint=BitTaint.of_bits(i % 256, range(2, 18)),
                site="mainSort/ftab[j]++",
            )
            for i in range(10_000)
        ]
        blob = serialize_records(SPECIES_MEMORY, records)
        assert len(blob) / len(records) < 24


class TestExactBytes:
    """Whole-file digests of captured stores.  Every byte comes from the
    taint algebra, the capture path and the writer together; any change
    to one of them that alters a byte fails here."""

    SURVEY_150_5 = {
        "survey-zlib-n150-s5":
            "f8ba9fa54b3091893fb160a8b35f07883bea4baae114eea8eadd20a7c2a58703",
        "survey-lzw-n150-s5":
            "868cca2cfa0124f968410c1a6ea9f6e874208dc937a8638046e187e1080abc4b",
        "survey-bzip2-n150-s5":
            "63c604fe409b31a57551f9f14680b0513a59aa8253197052bf1de02d4fafff10",
    }
    FIG7_SMALL = "f9ba87a1920b7dfcd233f14548444c91b080aee0e406da196670bbc834020311"

    def test_survey_capture_bytes(self, tmp_path):
        from repro.traces import TraceStore
        from repro.traces.capture import capture_survey_traces
        from repro.traces.store import file_sha256

        store = TraceStore(tmp_path / "store").open()
        entries = capture_survey_traces(store, size=150, seed=5)
        assert {e.trace_id: e.sha256 for e in entries} == self.SURVEY_150_5
        for entry in entries:
            assert file_sha256(store.trace_path(entry.trace_id)) == entry.sha256

    def test_fig7_store_bytes_and_accuracies(self, tmp_path):
        from repro.traces import TraceStore
        from repro.traces.capture import capture_fingerprint_traces
        from repro.traces.replay import fingerprint_experiment_from_store

        store = TraceStore(tmp_path / "store").open()
        entry = capture_fingerprint_traces(
            store, "fig7", corpus="brotli", traces_per_file=2, seed=5,
            max_file_bytes=1200,
        )
        assert entry.sha256 == self.FIG7_SMALL
        assert fingerprint_experiment_from_store(store, "fig7", seed=5) == {
            "test_accuracy": 0.0,
            "train_accuracy": 1.0,
            "n_files": 21,
            "chance": 1 / 21,
            "n_traces": 42,
        }
