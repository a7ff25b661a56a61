"""Compact, versioned binary serialization for captured traces.

Two trace *species* cover everything the reproduction records:

* ``memory`` — :class:`~repro.exec.events.MemoryAccess` streams from
  :class:`~repro.exec.context.TracingContext`: the raw material of the
  Section IV recovery survey and the Section V extraction.  Records are
  delta+varint coded (sequence numbers, addresses and indices are stored
  as zigzag deltas from the previous record) with an incremental string
  table for the heavily repeated ``array``/``site``/``kind`` fields, so
  a 10 KB-input bzip2 ftab trace costs a few bytes per access instead of
  a pickled dataclass each.
* ``fingerprint`` — sampled Flush+Reload hit/miss captures from
  :mod:`repro.core.zipchannel.fingerprint`: one
  :class:`FingerprintCapture` per classifier example, run-length coded
  (the 2 x 10,000 boolean tensor is long runs of hits and misses).
* ``oracle`` — per-guess probe outcomes from the :mod:`repro.oracle`
  BREACH / memory-compression attacks: one :class:`OracleProbe` per
  scored probe (step, probe label, probe length, the observed score,
  and the cumulative oracle-query count), so a recorded attack can be
  replayed and re-scored without re-running the victim.

Files are written and read in *chunks*: the writer flushes every
``chunk_records`` records, the reader yields records chunk by chunk, and
neither ever materialises the whole trace.  Every chunk carries a CRC-32
so corruption is detected at read time, at the damaged chunk, not as a
garbage analysis result.

Layout of one ``.trc`` file::

    header   magic "ZTRC" | version u16 LE | species u8 | reserved u8
    chunk*   payload_len u32 LE | crc32(payload) u32 LE | payload

    payload  new-strings prelude | record count varint
             | record directory (v2+) | records

    directory  total-bytes varint, then one varint per record:
               (record_byte_len << 2) | addr_tainted << 1 | value_tainted

The version-2 record directory costs ~1 byte per record and is what
makes the columnar fast path (:mod:`repro.traces.columns`) possible:
record boundaries become a cumulative sum instead of a sequential
decode, so replay analyses read whole chunks straight into numpy
arrays.  Version-1 files (no directory) remain fully readable.

Taint is preserved bit-exactly (the per-bit tag sets of
:class:`~repro.taint.bittaint.BitTaint`), so replayed traces drive the
same gadget classification as live ones.  Provenance links
(``addr_origin``) are *not* serialized: a stored trace is the attacker's
observation layer, not the full data-flow DAG.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint

MAGIC = b"ZTRC"
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

SPECIES_MEMORY = "memory"
SPECIES_FINGERPRINT = "fingerprint"
SPECIES_ORACLE = "oracle"

_SPECIES_CODES = {SPECIES_MEMORY: 1, SPECIES_FINGERPRINT: 2, SPECIES_ORACLE: 3}
_SPECIES_NAMES = {code: name for name, code in _SPECIES_CODES.items()}

_HEADER = struct.Struct("<4sHBB")
_CHUNK_HEADER = struct.Struct("<II")

DEFAULT_CHUNK_RECORDS = 4096

# Largest fingerprint record (rows x cols samples) a reader will decode
# or a writer will encode.  The paper's capture is 2 x 10,000 samples;
# the bound stops a crafted header from forcing a huge allocation.
MAX_FINGERPRINT_SAMPLES = 1 << 22


class TraceFormatError(ValueError):
    """Malformed, truncated, or corrupted trace file."""


@dataclass
class FingerprintCapture:
    """One stored Flush+Reload capture: the classifier's raw example.

    ``capture_seed`` is the exact RNG seed that produced this capture
    (see :func:`repro.core.zipchannel.fingerprint.derive_capture_seed`),
    which is what makes a stored trace re-derivable from scratch.
    """

    label: int
    capture_seed: int
    trace: np.ndarray  # (rows, cols) int8 of 0/1 hits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FingerprintCapture):
            return NotImplemented
        return (
            self.label == other.label
            and self.capture_seed == other.capture_seed
            and self.trace.shape == other.trace.shape
            and bool(np.array_equal(self.trace, other.trace))
        )


@dataclass(frozen=True)
class OracleProbe:
    """One scored probe of a sealed compression oracle.

    ``observation`` is the probe's *score* (for BREACH: the two-guess
    size delta in bytes, negative when the probed guess set contains the
    secret's next character; for the timing distinguisher: the mean
    observed latency in ticks).  ``queries`` is the attack's cumulative
    oracle-query count after this probe, so replay can reconstruct the
    query-budget curve.
    """

    step: int
    label: str
    probe_len: int
    observation: float
    queries: int


TraceRecord = Union[MemoryAccess, FingerprintCapture, OracleProbe]


# ----------------------------------------------------------------------
# varint / zigzag primitives
# ----------------------------------------------------------------------
def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_svarint(out: bytearray, value: int) -> None:
    """Zigzag-mapped signed varint (small magnitudes stay 1 byte)."""
    write_uvarint(out, (value << 1) ^ (value >> 63) if -(1 << 62) < value < (1 << 62)
                  else _zigzag_big(value))


def _zigzag_big(value: int) -> int:
    # Arbitrary-precision zigzag for values outside the fast 63-bit path.
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def read_uvarint(buf: memoryview, pos: int) -> tuple[int, int]:
    """Decode one unsigned varint at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise TraceFormatError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def read_svarint(buf: memoryview, pos: int) -> tuple[int, int]:
    """Decode one zigzag varint at ``pos``; returns (value, new_pos)."""
    raw, pos = read_uvarint(buf, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


# ----------------------------------------------------------------------
# BitTaint codec
# ----------------------------------------------------------------------
def _encode_bittaint(out: bytearray, taint: BitTaint) -> None:
    # Taint is overwhelmingly *runs* of consecutive bits sharing one tag
    # set (an input byte taints 8 bits, shifts translate whole runs), so
    # encode maximal equal-tag-set runs: gap from the previous run's
    # end, run length, then the delta-coded sorted tags.
    runs: list[tuple[int, int, tuple[int, ...]]] = []  # (start, length, tags)
    for bit, tags in taint:  # sorted (bit, frozenset) pairs
        ordered = tuple(sorted(tags))
        if runs and runs[-1][0] + runs[-1][1] == bit and runs[-1][2] == ordered:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1, ordered)
        else:
            runs.append((bit, 1, ordered))
    write_uvarint(out, len(runs))
    prev_end = 0
    for start, length, ordered in runs:
        write_uvarint(out, start - prev_end)
        write_uvarint(out, length)
        prev_end = start + length
        write_uvarint(out, len(ordered))
        prev_tag = 0
        for tag in ordered:
            write_uvarint(out, tag - prev_tag)
            prev_tag = tag


def _decode_bittaint(buf: memoryview, pos: int) -> tuple[BitTaint, int]:
    n_runs, pos = read_uvarint(buf, pos)
    if not n_runs:
        return BitTaint.empty(), pos
    bits: dict[int, frozenset[int]] = {}
    end = 0
    for _ in range(n_runs):
        gap, pos = read_uvarint(buf, pos)
        length, pos = read_uvarint(buf, pos)
        start = end + gap
        end = start + length
        n_tags, pos = read_uvarint(buf, pos)
        tags = []
        tag = 0
        for _ in range(n_tags):
            tag_delta, pos = read_uvarint(buf, pos)
            tag += tag_delta
            tags.append(tag)
        frozen = frozenset(tags)
        for bit in range(start, end):
            bits[bit] = frozen
    return BitTaint(bits), pos


# ----------------------------------------------------------------------
# Species codecs.  Encoders hold per-chunk delta state; a fresh encoder
# is created for every chunk so chunks decode independently of each
# other (apart from the append-only string table).
# ----------------------------------------------------------------------
class _StringTable:
    """Incremental interning: new strings ride in each chunk's prelude."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._strings: list[str] = []
        self._pending: list[str] = []

    def intern(self, text: str) -> int:
        existing = self._ids.get(text)
        if existing is not None:
            return existing
        idx = len(self._strings)
        self._ids[text] = idx
        self._strings.append(text)
        self._pending.append(text)
        return idx

    def flush_prelude(self, out: bytearray) -> None:
        write_uvarint(out, len(self._pending))
        for text in self._pending:
            raw = text.encode("utf-8")
            write_uvarint(out, len(raw))
            out.extend(raw)
        self._pending.clear()

    def read_prelude(self, buf: memoryview, pos: int) -> int:
        n_new, pos = read_uvarint(buf, pos)
        for _ in range(n_new):
            length, pos = read_uvarint(buf, pos)
            if pos + length > len(buf):
                raise TraceFormatError("truncated string table entry")
            self._strings.append(bytes(buf[pos : pos + length]).decode("utf-8"))
            pos += length
        return pos

    def lookup(self, idx: int) -> str:
        try:
            return self._strings[idx]
        except IndexError:
            raise TraceFormatError(f"string id {idx} out of range") from None


class _MemoryCodec:
    """Delta+varint codec for MemoryAccess records."""

    def __init__(self, strings: _StringTable) -> None:
        self.strings = strings
        self._reset()

    def _reset(self) -> None:
        self._prev_seq = 0
        self._prev_address = 0
        self._prev_index = 0

    def begin_chunk(self) -> None:
        self._reset()

    def flags(self, record: MemoryAccess) -> int:
        # Directory bits: the per-record taint booleans the columnar
        # reader serves without decoding the taint-run payloads.
        return (bool(record.addr_taint) << 1) | bool(record.value_taint)

    def encode(self, out: bytearray, record: MemoryAccess) -> None:
        write_svarint(out, record.seq - self._prev_seq)
        self._prev_seq = record.seq
        write_uvarint(out, self.strings.intern(record.kind))
        write_uvarint(out, self.strings.intern(record.array))
        write_svarint(out, record.index - self._prev_index)
        self._prev_index = record.index
        write_uvarint(out, record.elem_size)
        write_svarint(out, record.address - self._prev_address)
        self._prev_address = record.address
        write_uvarint(out, self.strings.intern(record.site))
        _encode_bittaint(out, record.addr_taint)
        _encode_bittaint(out, record.value_taint)

    def decode(self, buf: memoryview, pos: int) -> tuple[MemoryAccess, int]:
        seq_delta, pos = read_svarint(buf, pos)
        self._prev_seq += seq_delta
        kind_id, pos = read_uvarint(buf, pos)
        array_id, pos = read_uvarint(buf, pos)
        index_delta, pos = read_svarint(buf, pos)
        self._prev_index += index_delta
        elem_size, pos = read_uvarint(buf, pos)
        addr_delta, pos = read_svarint(buf, pos)
        self._prev_address += addr_delta
        site_id, pos = read_uvarint(buf, pos)
        addr_taint, pos = _decode_bittaint(buf, pos)
        value_taint, pos = _decode_bittaint(buf, pos)
        record = MemoryAccess(
            seq=self._prev_seq,
            kind=self.strings.lookup(kind_id),
            array=self.strings.lookup(array_id),
            index=self._prev_index,
            elem_size=elem_size,
            address=self._prev_address,
            addr_taint=addr_taint,
            value_taint=value_taint,
            site=self.strings.lookup(site_id),
        )
        return record, pos


def _check_fingerprint_shape(rows: int, cols: int) -> int:
    """Sample count of a fingerprint record, refused with
    :class:`TraceFormatError` above the bound.  Both decoders call it
    on the record header before allocating, and the writer before
    encoding."""
    size = rows * cols
    if size > MAX_FINGERPRINT_SAMPLES:
        raise TraceFormatError(
            f"fingerprint record of {rows} x {cols} samples exceeds the "
            f"{MAX_FINGERPRINT_SAMPLES}-sample bound"
        )
    return size


class _FingerprintCodec:
    """Run-length codec for boolean hit/miss tensors."""

    def __init__(self, strings: _StringTable) -> None:
        del strings  # fingerprint records carry no strings

    def begin_chunk(self) -> None:
        pass

    def flags(self, record: FingerprintCapture) -> int:
        del record
        return 0

    def encode(self, out: bytearray, record: FingerprintCapture) -> None:
        trace = np.ascontiguousarray(record.trace, dtype=np.int8)
        if trace.ndim != 2:
            raise ValueError(f"fingerprint trace must be 2-D, got {trace.shape}")
        _check_fingerprint_shape(*trace.shape)
        if trace.size and not np.isin(trace, (0, 1)).all():
            raise ValueError("fingerprint trace must contain only 0/1 samples")
        write_svarint(out, record.label)
        write_uvarint(out, record.capture_seed)
        rows, cols = trace.shape
        write_uvarint(out, rows)
        write_uvarint(out, cols)
        flat = trace.reshape(-1)
        if not flat.size:
            return
        # Run boundaries via the classic diff trick; first value, then
        # the run lengths (they alternate, so values are implicit).
        boundaries = np.flatnonzero(np.diff(flat)) + 1
        runs = np.diff(np.concatenate(([0], boundaries, [flat.size])))
        out.append(int(flat[0]))
        write_uvarint(out, len(runs))
        for run in runs:
            write_uvarint(out, int(run))

    def decode(self, buf: memoryview, pos: int) -> tuple[FingerprintCapture, int]:
        label, pos = read_svarint(buf, pos)
        capture_seed, pos = read_uvarint(buf, pos)
        rows, pos = read_uvarint(buf, pos)
        cols, pos = read_uvarint(buf, pos)
        size = _check_fingerprint_shape(rows, cols)
        if not size:
            trace = np.zeros((rows, cols), dtype=np.int8)
            return FingerprintCapture(label, capture_seed, trace), pos
        if pos >= len(buf):
            raise TraceFormatError("truncated fingerprint record")
        value = buf[pos]
        pos += 1
        if value not in (0, 1):
            raise TraceFormatError(f"invalid fingerprint start value {value}")
        n_runs, pos = read_uvarint(buf, pos)
        flat = np.empty(size, dtype=np.int8)
        offset = 0
        for _ in range(n_runs):
            run, pos = read_uvarint(buf, pos)
            if offset + run > size:
                raise TraceFormatError("fingerprint runs overflow the tensor")
            flat[offset : offset + run] = value
            offset += run
            value ^= 1
        if offset != size:
            raise TraceFormatError(
                f"fingerprint runs cover {offset} of {size} samples"
            )
        return FingerprintCapture(label, capture_seed, flat.reshape(rows, cols)), pos


class _OracleCodec:
    """Delta+varint codec for OracleProbe records.

    Steps and query counts are monotone within an attack, so both are
    delta coded; labels repeat heavily (one per probe shape) and ride
    the string table; the observation stays an exact IEEE-754 double so
    replayed scores are bit-identical.
    """

    _OBSERVATION = struct.Struct("<d")

    def __init__(self, strings: _StringTable) -> None:
        self.strings = strings
        self._reset()

    def _reset(self) -> None:
        self._prev_step = 0
        self._prev_queries = 0

    def begin_chunk(self) -> None:
        self._reset()

    def flags(self, record: OracleProbe) -> int:
        del record
        return 0

    def encode(self, out: bytearray, record: OracleProbe) -> None:
        write_svarint(out, record.step - self._prev_step)
        self._prev_step = record.step
        write_uvarint(out, self.strings.intern(record.label))
        write_uvarint(out, record.probe_len)
        out.extend(self._OBSERVATION.pack(record.observation))
        write_svarint(out, record.queries - self._prev_queries)
        self._prev_queries = record.queries

    def decode(self, buf: memoryview, pos: int) -> tuple[OracleProbe, int]:
        step_delta, pos = read_svarint(buf, pos)
        self._prev_step += step_delta
        label_id, pos = read_uvarint(buf, pos)
        probe_len, pos = read_uvarint(buf, pos)
        if pos + self._OBSERVATION.size > len(buf):
            raise TraceFormatError("truncated oracle observation")
        (observation,) = self._OBSERVATION.unpack_from(buf, pos)
        pos += self._OBSERVATION.size
        queries_delta, pos = read_svarint(buf, pos)
        self._prev_queries += queries_delta
        record = OracleProbe(
            step=self._prev_step,
            label=self.strings.lookup(label_id),
            probe_len=probe_len,
            observation=observation,
            queries=self._prev_queries,
        )
        return record, pos


_CODECS = {
    SPECIES_MEMORY: _MemoryCodec,
    SPECIES_FINGERPRINT: _FingerprintCodec,
    SPECIES_ORACLE: _OracleCodec,
}


# ----------------------------------------------------------------------
# Streaming writer / reader
# ----------------------------------------------------------------------
@dataclass
class TraceSummary:
    """What a finished write reports (and a verify recomputes)."""

    species: str
    n_records: int = 0
    n_chunks: int = 0
    size_bytes: int = 0


class TraceWriter:
    """Chunked streaming writer; use as a context manager.

    Records are buffered and flushed every ``chunk_records`` appends, so
    writing a multi-million-event trace never holds more than one
    chunk's worth of encoded bytes.
    """

    def __init__(
        self,
        stream: BinaryIO,
        species: str,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        version: int = FORMAT_VERSION,
    ) -> None:
        if species not in _SPECIES_CODES:
            raise ValueError(f"unknown trace species {species!r}")
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        if version not in SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported trace format version {version}")
        self.species = species
        self.chunk_records = chunk_records
        self.version = version
        self._stream = stream
        self._strings = _StringTable()
        self._codec = _CODECS[species](self._strings)
        self._buffer: list[TraceRecord] = []
        self._closed = False
        self.summary = TraceSummary(species=species)
        header = _HEADER.pack(MAGIC, version, _SPECIES_CODES[species], 0)
        self._stream.write(header)
        self.summary.size_bytes = len(header)

    def append(self, record: TraceRecord) -> None:
        """Add one record; flushes a chunk when the buffer fills."""
        if self._closed:
            raise ValueError("writer is closed")
        self._buffer.append(record)
        if len(self._buffer) >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        if not self._buffer:
            return
        payload = bytearray()
        self._codec.begin_chunk()
        records_block = bytearray()
        lengths: list[int] = []
        flags: list[int] = []
        for record in self._buffer:
            before = len(records_block)
            self._codec.encode(records_block, record)
            lengths.append(len(records_block) - before)
            flags.append(self._codec.flags(record))
        body = bytearray()
        write_uvarint(body, len(self._buffer))
        if self.version >= 2:
            directory = bytearray()
            for length, flag in zip(lengths, flags):
                write_uvarint(directory, (length << 2) | flag)
            write_uvarint(body, len(directory))
            body.extend(directory)
        body.extend(records_block)
        # String-table prelude goes first, but interning happens during
        # record encoding — so build the body first, then the prelude.
        self._strings.flush_prelude(payload)
        payload.extend(body)
        raw = bytes(payload)
        self._stream.write(_CHUNK_HEADER.pack(len(raw), zlib.crc32(raw)))
        self._stream.write(raw)
        self.summary.n_records += len(self._buffer)
        self.summary.n_chunks += 1
        self.summary.size_bytes += _CHUNK_HEADER.size + len(raw)
        self._buffer.clear()

    def close(self) -> TraceSummary:
        """Flush the final partial chunk and seal the summary."""
        if not self._closed:
            self._flush_chunk()
            self._closed = True
        return self.summary

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True  # don't flush half a record set on error


def _read_header(stream: BinaryIO) -> tuple[str, int]:
    """Read and check a trace file's header; returns (species, version)."""
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, species_code, _ = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}: not a trace file")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(
            f"unsupported trace format version {version} "
            f"(this reader speaks {SUPPORTED_VERSIONS})"
        )
    species = _SPECIES_NAMES.get(species_code)
    if species is None:
        raise TraceFormatError(f"unknown species code {species_code}")
    return species, version


def _iter_chunks(stream: BinaryIO) -> Iterator[bytes]:
    """CRC-checked chunk payloads, read from just past the header."""
    while True:
        chunk_header = stream.read(_CHUNK_HEADER.size)
        if not chunk_header:
            return
        if len(chunk_header) != _CHUNK_HEADER.size:
            raise TraceFormatError("truncated chunk header")
        length, crc = _CHUNK_HEADER.unpack(chunk_header)
        raw = stream.read(length)
        if len(raw) != length:
            raise TraceFormatError("truncated chunk payload")
        if zlib.crc32(raw) != crc:
            raise TraceFormatError("chunk CRC mismatch: trace file is corrupted")
        yield raw


class TraceReader:
    """Chunked streaming reader: iterate to get records lazily.

    Each chunk's CRC is checked before decoding, so a flipped byte
    anywhere in the file raises :class:`TraceFormatError` instead of
    yielding silently wrong records.
    """

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        species, version = _read_header(stream)
        self.species = species
        self.version = version
        self._strings = _StringTable()
        self._codec = _CODECS[species](self._strings)
        self._consumed = False

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._consumed:
            raise ValueError("trace readers are single-pass; reopen the file")
        self._consumed = True
        for raw in _iter_chunks(self._stream):
            buf = memoryview(raw)
            pos = self._strings.read_prelude(buf, 0)
            n_records, pos = read_uvarint(buf, pos)
            if self.version >= 2:
                # The record directory serves the columnar reader; the
                # object path decodes records sequentially and skips it.
                dir_nbytes, pos = read_uvarint(buf, pos)
                if pos + dir_nbytes > len(buf):
                    raise TraceFormatError("truncated record directory")
                pos += dir_nbytes
            self._codec.begin_chunk()
            for _ in range(n_records):
                record, pos = self._codec.decode(buf, pos)
                yield record
            if pos != len(buf):
                raise TraceFormatError(
                    f"{len(buf) - pos} trailing bytes in chunk"
                )


# ----------------------------------------------------------------------
# Whole-file convenience wrappers
# ----------------------------------------------------------------------
def write_trace(
    path,
    species: str,
    records: Iterable[TraceRecord],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> TraceSummary:
    """Write ``records`` to ``path``; returns the write summary."""
    with open(path, "wb") as handle:
        with TraceWriter(handle, species, chunk_records=chunk_records) as writer:
            writer.extend(records)
        return writer.close()


def iter_trace(path) -> Iterator[TraceRecord]:
    """Stream records from ``path`` without materialising the trace."""
    with open(path, "rb") as handle:
        yield from TraceReader(handle)


def read_trace(path) -> list[TraceRecord]:
    """Read the whole trace into memory (small traces / tests)."""
    return list(iter_trace(path))


def trace_species(path) -> str:
    """Peek at a file's species without decoding any records."""
    with open(path, "rb") as handle:
        return TraceReader(handle).species


def count_trace_records(path) -> int:
    """Count records from chunk headers alone, without decoding them.

    Each chunk's CRC is still verified and its record-count varint read,
    so a corrupted file raises exactly as full decoding would — but the
    cost is one CRC pass over the bytes, not one decode per record.
    """
    with open(path, "rb") as handle:
        _read_header(handle)
        strings = _StringTable()
        total = 0
        for raw in _iter_chunks(handle):
            buf = memoryview(raw)
            n_records, _ = read_uvarint(buf, strings.read_prelude(buf, 0))
            total += n_records
        return total


def serialize_records(
    species: str,
    records: Iterable[TraceRecord],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> bytes:
    """In-memory serialization (property tests, network transport)."""
    buffer = io.BytesIO()
    with TraceWriter(buffer, species, chunk_records=chunk_records) as writer:
        writer.extend(records)
    writer.close()
    return buffer.getvalue()


def deserialize_records(blob: bytes) -> list[TraceRecord]:
    """Inverse of :func:`serialize_records`."""
    return list(TraceReader(io.BytesIO(blob)))
