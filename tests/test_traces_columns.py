"""Equivalence proofs for the columnar ZTRC decoder.

The columnar decoder (:mod:`repro.traces.columns`) is the only ZTRC
reader, and it has no authority of its own: on every file the writer
produces, each column of every species must equal, field for field,
what the record-at-a-time reference (``tests/ztrc_reference.py``)
decodes from the same bytes, for any chunking.  The Hypothesis suites
here pin exactly that, plus the run-domain pooling against
``pool_trace``.  Values the int64 columns cannot hold are refused: by
the writer, and by the reader with :class:`TraceFormatError` on a
hand-built file.  Damaged input is the fuzz test's business
(``tests/test_traces_format.py``).
"""

import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.zipchannel.fingerprint import pool_trace
from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint
from repro.traces import (
    FingerprintCapture,
    OracleProbe,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
    TraceFormatError,
    TraceStore,
    TraceWriter,
    count_trace_records,
    read_trace_columns,
    replay_lines,
    replay_lines_array,
)
from repro.traces.format import (
    _CHUNK_HEADER,
    _HEADER,
    MAGIC,
    write_svarint,
    write_uvarint,
)
from tests.test_traces_format import fingerprint_captures, memory_accesses
from tests.ztrc_reference import read_trace


def _write(path, species, records, chunk_records=7):
    with open(path, "wb") as handle:
        with TraceWriter(handle, species, chunk_records=chunk_records) as writer:
            writer.extend(records)


def _roundtrip(species, records, chunk_records):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.trc"
        _write(path, species, records, chunk_records)
        return read_trace_columns(path), read_trace(path), count_trace_records(path)


def _hand_built_memory_file(path, addresses):
    """One chunk of records the writer would refuse: each record's
    address field is the raw svarint ``addresses[i]`` (delta from the
    previous record); every other field is zero, strings table ``["s"]``."""
    records = []
    for address in addresses:
        fields = bytearray([0, 0, 0, 0, 2])  # seq, kind, array, index, elem_size
        write_svarint(fields, address)
        fields += bytes([0, 0, 0])  # site, no addr taint, no value taint
        records.append(fields)
    directory = bytearray()
    for fields in records:
        write_uvarint(directory, len(fields) << 2)
    payload = bytearray([1, 1]) + b"s"  # one new string: "s"
    write_uvarint(payload, len(records))
    write_uvarint(payload, len(directory))
    payload += directory + b"".join(records)
    path.write_bytes(
        _HEADER.pack(MAGIC, 2, 1, 0)
        + _CHUNK_HEADER.pack(len(payload), zlib.crc32(payload))
        + bytes(payload)
    )


# ----------------------------------------------------------------------
# memory species
# ----------------------------------------------------------------------
class TestMemoryColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(memory_accesses(), max_size=40),
        chunk_records=st.integers(min_value=1, max_value=64),
    )
    def test_columns_match_objects(self, records, chunk_records):
        cols, objs, counted = _roundtrip(SPECIES_MEMORY, records, chunk_records)
        assert counted == len(objs) == cols.n == len(records)
        for i, r in enumerate(objs):
            assert int(cols.seq[i]) == r.seq
            assert cols.strings[int(cols.kind_id[i])] == r.kind
            assert cols.strings[int(cols.array_id[i])] == r.array
            assert int(cols.index[i]) == r.index
            assert int(cols.elem_size[i]) == r.elem_size
            assert int(cols.address[i]) == r.address
            assert cols.strings[int(cols.site_id[i])] == r.site
            assert bool(cols.addr_tainted[i]) == bool(r.addr_taint)
            assert bool(cols.value_tainted[i]) == bool(r.value_taint)

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(memory_accesses(), max_size=40),
        sites=st.one_of(
            st.none(),
            st.sets(
                st.sampled_from(
                    ["deflate_slow/head[ins_h]", "lzw/htab[hp]",
                     "mainSort/ftab", ""]
                ),
                max_size=3,
            ),
        ),
        kind=st.one_of(st.none(), st.sampled_from(["read", "write", "update"])),
    )
    def test_replay_lines_array_matches_objects(self, records, sites, kind):
        cols, objs, _ = _roundtrip(SPECIES_MEMORY, records, 7)
        expected = replay_lines(objs, sites=sites, kind=kind)
        got = replay_lines_array(cols, sites=sites, kind=kind)
        assert got.tolist() == expected

    def test_huge_address_falls_back_to_objects(self):
        # A 70-bit address does not fit the int64 columns: the writer
        # refuses it, and a hand-built file that carries one (a 10-byte
        # varint) is refused by the columnar reader.
        record = MemoryAccess(
            seq=1, kind="read", array="head", index=2, elem_size=2,
            address=1 << 70, addr_taint=BitTaint.byte(0), site="s",
        )
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.trc"
            with pytest.raises(ValueError, match="2\\*\\*61"):
                _write(path, SPECIES_MEMORY, [record])
            _hand_built_memory_file(path, [1 << 70])  # an 11-byte varint
            with pytest.raises(TraceFormatError, match="overflows int64"):
                read_trace_columns(path)
            _hand_built_memory_file(path, [1 << 62])  # exactly 10 bytes
            with pytest.raises(TraceFormatError, match="overflows int64"):
                read_trace_columns(path)

    def test_running_sum_past_int64_is_refused(self, tmp_path):
        # Each delta fits nine bytes, but the third running sum is
        # 3 * (2**62 - 1) > 2**63 - 1.
        path = tmp_path / "t.trc"
        _hand_built_memory_file(path, [(1 << 62) - 1] * 2)
        assert read_trace_columns(path).address.tolist() == [(1 << 62) - 1, (1 << 63) - 2]
        _hand_built_memory_file(path, [(1 << 62) - 1] * 3)
        with pytest.raises(TraceFormatError, match="leaves int64"):
            read_trace_columns(path)
        _hand_built_memory_file(path, [-(1 << 62) + 1] * 3)
        with pytest.raises(TraceFormatError, match="leaves int64"):
            read_trace_columns(path)

    def test_empty_trace(self):
        cols, objs, counted = _roundtrip(SPECIES_MEMORY, [], 7)
        assert cols.n == 0 and objs == [] and counted == 0

    def test_large_chunks_match_objects(self):
        # One 65,536-record chunk whose addresses jump by 2**47: a
        # conservative ``n * max|delta|`` overflow bound (2**64) would
        # refuse this valid chunk; the exact per-step test must not.
        records = [
            MemoryAccess(seq=i, kind="write", array="ftab", index=i,
                         elem_size=4, address=((i % 2) << 47) + 64 * i,
                         site="s")
            for i in range(65536)
        ]
        cols, objs, counted = _roundtrip(SPECIES_MEMORY, records, 65536)
        assert counted == cols.n == len(objs) == 65536
        assert cols.address.tolist() == [r.address for r in records]
        assert cols.seq.tolist() == [r.seq for r in objs]
        assert cols.index.tolist() == [r.index for r in objs]


# ----------------------------------------------------------------------
# fingerprint species
# ----------------------------------------------------------------------
class TestFingerprintColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        captures=st.lists(fingerprint_captures(), max_size=8),
        chunk_records=st.integers(min_value=1, max_value=64),
    )
    def test_columns_match_objects(self, captures, chunk_records):
        cols, objs, counted = _roundtrip(SPECIES_FINGERPRINT, captures, chunk_records)
        assert counted == len(objs) == cols.n
        assert cols.labels.tolist() == [c.label for c in objs]
        assert cols.capture_seeds.tolist() == [c.capture_seed for c in objs]
        for got, ref in zip(cols.traces, objs):
            assert got.shape == ref.trace.shape
            assert np.array_equal(got, ref.trace)

    @settings(max_examples=40, deadline=None)
    @given(
        captures=st.lists(fingerprint_captures(), min_size=1, max_size=6),
        width=st.integers(min_value=1, max_value=500),
    )
    def test_pooled_matches_pool_trace(self, captures, width):
        cols, objs, _ = _roundtrip(SPECIES_FINGERPRINT, captures, 3)
        shapes = {c.trace.shape for c in objs}
        pooled = cols.pooled(width)
        if len(shapes) != 1 or next(iter(shapes))[1] // width < 1:
            assert pooled is None
            return
        assert pooled is not None
        ref = np.stack([pool_trace(c.trace, width) for c in objs])
        assert pooled.dtype == np.int8
        assert np.array_equal(pooled, ref)

    def test_pooled_constant_tensors(self):
        captures = [
            FingerprintCapture(0, 1, np.zeros((2, 40), dtype=np.int8)),
            FingerprintCapture(1, 2, np.ones((2, 40), dtype=np.int8)),
        ]
        cols, objs, _ = _roundtrip(SPECIES_FINGERPRINT, captures, 3)
        for width in (1, 3, 10, 40):
            ref = np.stack([pool_trace(c.trace, width) for c in objs])
            assert np.array_equal(cols.pooled(width), ref)


# ----------------------------------------------------------------------
# oracle species
# ----------------------------------------------------------------------
def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


_FIELD = (1 << 61) - 1

oracle_probes = st.builds(
    OracleProbe,
    step=st.one_of(st.integers(-300, 300), st.integers(-_FIELD, _FIELD)),
    label=st.text(max_size=12),
    probe_len=st.one_of(st.integers(0, 4_000), st.integers(0, _FIELD)),
    observation=st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]),
    ),
    queries=st.one_of(st.integers(0, 100_000), st.integers(-_FIELD, _FIELD)),
)


def _hand_built_oracle_file(path, record: bytes, n_strings=1):
    """One chunk holding one oracle record given as raw bytes; string
    table ``["a"]`` (or empty for ``n_strings=0``)."""
    directory = bytearray()
    write_uvarint(directory, len(record) << 2)
    payload = bytearray([1, 1]) + b"a" if n_strings else bytearray([0])
    write_uvarint(payload, 1)
    write_uvarint(payload, len(directory))
    payload += directory + record
    path.write_bytes(
        _HEADER.pack(MAGIC, 2, 3, 0)
        + _CHUNK_HEADER.pack(len(payload), zlib.crc32(payload))
        + bytes(payload)
    )


class TestOracleColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        probes=st.lists(oracle_probes, max_size=30),
        chunk_records=st.integers(min_value=1, max_value=40),
    )
    def test_columns_match_objects(self, probes, chunk_records):
        cols, objs, counted = _roundtrip(SPECIES_ORACLE, probes, chunk_records)
        assert counted == len(objs) == cols.n == len(probes)
        assert cols.step.tolist() == [p.step for p in objs]
        assert cols.lookup(cols.label_id).tolist() == [p.label for p in objs]
        assert cols.probe_len.tolist() == [p.probe_len for p in objs]
        assert cols.queries.tolist() == [p.queries for p in objs]
        # Bit for bit: -0.0, infinities and NaN payloads included.
        assert cols.observation.dtype == np.float64
        assert cols.observation.tobytes() == b"".join(
            _bits(p.observation) for p in objs
        )
        assert [_bits(p.observation) for p in objs] == [
            _bits(p.observation) for p in probes
        ]

    def test_signed_zero_and_infinities_survive(self, tmp_path):
        probes = [OracleProbe(i, "x", 1, value, i)
                  for i, value in enumerate((-0.0, float("inf"), float("-inf")))]
        path = tmp_path / "t.trc"
        _write(path, SPECIES_ORACLE, probes)
        cols = read_trace_columns(path)
        assert cols.observation.tobytes() == b"".join(_bits(p.observation) for p in probes)

    def test_record_must_end_at_its_directory_boundary(self, tmp_path):
        path = tmp_path / "t.trc"
        record = bytes([0, 0, 3]) + _bits(1.5) + bytes([2])
        _hand_built_oracle_file(path, record)
        cols = read_trace_columns(path)
        assert (cols.step.tolist(), cols.queries.tolist()) == ([0], [1])
        _hand_built_oracle_file(path, record + bytes([0]))  # one spare byte
        with pytest.raises(TraceFormatError, match="directory entry"):
            read_trace_columns(path)
        _hand_built_oracle_file(path, record[:8])  # the double is cut short
        with pytest.raises(TraceFormatError, match="oracle observation"):
            read_trace_columns(path)

    def test_label_id_past_the_string_table_is_refused(self, tmp_path):
        path = tmp_path / "t.trc"
        record = bytes([0, 1, 3]) + _bits(1.5) + bytes([2])  # label id 1
        _hand_built_oracle_file(path, record)
        with pytest.raises(TraceFormatError, match="string id 1"):
            read_trace_columns(path)
        _hand_built_oracle_file(path, bytes([0, 0, 3]) + _bits(1.5) + bytes([2]),
                                n_strings=0)
        with pytest.raises(TraceFormatError, match="string id 0"):
            read_trace_columns(path)


# ----------------------------------------------------------------------
# species coverage and store integration
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_every_species_reads_through_the_store(self):
        records = {
            SPECIES_MEMORY: [MemoryAccess(seq=1, address=64, site="s")],
            SPECIES_FINGERPRINT: [
                FingerprintCapture(2, 9, np.ones((1, 3), dtype=np.int8))
            ],
            SPECIES_ORACLE: [OracleProbe(0, "a", 3, -1.0, 7)],
        }
        with tempfile.TemporaryDirectory() as scratch:
            store = TraceStore(scratch).open()
            for species, batch in records.items():
                store.put(species, species, batch)
                cols = store.read_columns(species)
                assert cols.species == species and cols.n == 1
            cols = store.read_columns(SPECIES_ORACLE)
            assert cols.lookup(cols.label_id).tolist() == ["a"]
            assert cols.observation.tolist() == [-1.0]

    def test_store_count_and_verify_use_chunk_headers(self):
        records = [
            MemoryAccess(seq=i, kind="read", array="head", index=i,
                         elem_size=2, address=(1 << 44) + 64 * i, site="s")
            for i in range(25)
        ]
        with tempfile.TemporaryDirectory() as scratch:
            store = TraceStore(scratch).open()
            with store.create("t", SPECIES_MEMORY, chunk_records=4) as writer:
                writer.extend(records)
            assert store.count_records("t") == 25
            assert store.get("t").n_records == 25
            report = store.verify("t")[0]
            assert report.ok, report
            cols = store.read_columns("t")
            assert cols.n == 25
            assert cols.address.tolist() == [r.address for r in records]
