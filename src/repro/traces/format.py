"""Compact, versioned binary serialization for captured traces.

Three trace *species* cover everything the reproduction records:

* ``memory`` — :class:`~repro.exec.events.MemoryAccess` streams from
  :class:`~repro.exec.context.TracingContext`: the raw material of the
  Section IV recovery survey and the Section V extraction.  Records are
  delta+varint coded (sequence numbers, addresses and indices are stored
  as zigzag deltas from the previous record) with an incremental string
  table for the heavily repeated ``array``/``site``/``kind`` fields, so
  a 10 KB-input bzip2 ftab trace costs a few bytes per access instead of
  a pickled dataclass each.  The writer encodes a whole chunk at once:
  the scalar fields become int64 columns written one varint byte lane
  at a time (the mirror of the columnar reader), and each taint is
  written straight from :class:`~repro.taint.bittaint.BitTaint`'s run
  list.
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
``chunk_records`` records and the reader decodes one chunk at a time.
Every chunk carries a CRC-32 so corruption is detected at read time, at
the damaged chunk, not as a garbage analysis result.

Layout of one ``.trc`` file::

    header   magic "ZTRC" | version u16 LE | species u8 | reserved u8
    chunk*   payload_len u32 LE | crc32(payload) u32 LE | payload

    payload  new-strings prelude | record count varint
             | record directory | records

    directory  total-bytes varint, then one varint per record:
               (record_byte_len << 2) | addr_tainted << 1 | value_tainted

The record directory costs ~1 byte per record and is what makes the
columnar reader (:mod:`repro.traces.columns`), the one ZTRC reader,
possible: record boundaries become a cumulative sum instead of a
sequential decode, so every species is read whole chunks at a time
straight into numpy arrays.  Version 2 is the only format; any other
version raises :class:`TraceFormatError` (re-capture the trace from its
``(target, size, seed)``).

Every byte string parses or raises :class:`TraceFormatError`, and the
writer refuses records the reader could not give back: integer fields
outside +-2**61, taint past :data:`MAX_TAINT_BITS`, fingerprints over
:data:`MAX_FINGERPRINT_SAMPLES`.

Taint is stored bit-exactly: a stored taint is
:class:`~repro.taint.bittaint.BitTaint`'s canonical run list (gap,
length, delta-coded sorted tags per run).  The reader takes each
record's taint booleans from the directory flags and skips the runs; no
code in ``repro`` parses them yet, and the test suite's record-at-a-time
reference decoder checks them round trip.  Provenance links
(``addr_origin``) are *not* serialized: a stored trace is the attacker's
observation layer, not the full data-flow DAG.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Union

import numpy as np

from repro.exec.events import MemoryAccess

MAGIC = b"ZTRC"
FORMAT_VERSION = 2

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

# Every stored taint run ends at or below this bit (the taint engine
# tracks 64-bit values); the writer refuses longer.
MAX_TAINT_BITS = 1 << 10

# Writers accept integer fields below this magnitude: the zigzag delta
# of two such values fits the columnar reader's nine-byte varints.
_FIELD_BOUND = 1 << 61


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
def _uvarint_bytes(value: int) -> list[int]:
    """The bytes of one LEB128 varint (``value >= 0``), as a list of ints."""
    out = []
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return out


def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out.extend(_uvarint_bytes(value))


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


# ----------------------------------------------------------------------
# Columnar varint encoding: the writer's mirror of the columnar reader's
# lane-by-lane gather (:mod:`repro.traces.columns`).
# ----------------------------------------------------------------------
def _zigzag(values: np.ndarray) -> np.ndarray:
    """Vectorised zigzag map for int64 values inside +-2**62."""
    return (values << 1) ^ (values >> 63)


def _varint_lengths(values: np.ndarray) -> np.ndarray:
    """LEB128 byte length of every (non-negative int64) value."""
    lengths = np.ones(values.shape, dtype=np.int64)
    top = int(values.max()) if values.size else 0
    shift = 7
    while shift < 64 and top >> shift:
        lengths += values >= (1 << shift)
        shift += 7
    return lengths


def _scatter_varints(
    out: np.ndarray, offsets: np.ndarray, values: np.ndarray, lengths: np.ndarray
) -> None:
    """Write one LEB128 varint per row into ``out`` (uint8) at ``offsets``.

    Byte lanes are written together: lane ``k`` holds bits ``7k..7k+6``
    of every value that still has them, so the loop runs
    max-varint-length times, not once per value.
    """
    lane = 0
    while offsets.size:
        more = lengths > lane + 1
        out[offsets + lane] = (values & 0x7F) | (more << 7)
        offsets, values, lengths = offsets[more], values[more] >> 7, lengths[more]
        lane += 1


def _varint_stream(values: np.ndarray) -> bytes:
    """Back-to-back LEB128 varints of non-negative int64 ``values``."""
    lengths = _varint_lengths(values)
    offsets = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    _scatter_varints(out, offsets, values, lengths)
    return out.tobytes()


# ----------------------------------------------------------------------
# Species codecs.  ``encode_chunk`` turns one chunk's records into the
# records block and their directory entries; delta state restarts at
# every chunk so chunks decode independently of each other (apart from
# the append-only string table).
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
            try:
                self._strings.append(bytes(buf[pos : pos + length]).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise TraceFormatError(f"string table entry: {exc}") from None
            pos += length
        return pos


class _RecordCodec:
    """A codec whose records are encoded one at a time (no directory
    flags): ``encode`` appends one record, ``begin_chunk`` resets the
    per-chunk delta state."""

    def begin_chunk(self) -> None:
        pass

    def encode(self, out: bytearray, record) -> None:
        raise NotImplementedError

    def encode_chunk(self, records: list) -> tuple[bytes, np.ndarray]:
        self.begin_chunk()
        block = bytearray()
        lengths = []
        for record in records:
            before = len(block)
            self.encode(block, record)
            lengths.append(len(block) - before)
        return bytes(block), np.array(lengths, dtype=np.int64) << 2


class _MemoryCodec:
    """Delta+varint codec for MemoryAccess records.

    A record is seven varints — zigzag seq delta, kind id, array id,
    zigzag index delta, elem_size, zigzag address delta, site id — then
    the address taint and the value taint.  Encoding is columnar: the
    scalar fields of a whole chunk become int64 columns written lane by
    lane, and each taint is written straight from its run list.
    """

    def __init__(self, strings: _StringTable) -> None:
        self.strings = strings
        # Encoded tag sets, memoised for this writer only.
        self._tag_bytes: dict[frozenset[int], tuple[int, ...]] = {}

    def _taint_bytes(self, runs: tuple) -> bytes:
        """``n_runs``, then per run: gap from the previous run's end,
        length, and the run's tag set (count, then delta-coded sorted
        tags)."""
        if not runs:
            return b"\x00"
        if runs[-1][1] > MAX_TAINT_BITS:
            raise ValueError(f"taint reaches past bit {MAX_TAINT_BITS}")
        out = _uvarint_bytes(len(runs))
        memo = self._tag_bytes
        prev_end = 0
        for lo, hi, tags in runs:
            gap, length = lo - prev_end, hi - lo
            if gap < 0x80 and length < 0x80:
                out += (gap, length)
            else:
                out += _uvarint_bytes(gap) + _uvarint_bytes(length)
            prev_end = hi
            encoded = memo.get(tags)
            if encoded is None:
                encoded = _uvarint_bytes(len(tags))
                prev_tag = 0
                for tag in sorted(tags):
                    encoded += _uvarint_bytes(tag - prev_tag)
                    prev_tag = tag
                encoded = memo[tags] = tuple(encoded)
            out += encoded
        return bytes(out)

    def encode_chunk(self, records: list[MemoryAccess]) -> tuple[bytes, np.ndarray]:
        n = len(records)
        intern = self.strings.intern
        taint_bytes = self._taint_bytes
        # Strings are interned in record order (kind, array, site), so
        # ids and the string prelude are what a record-at-a-time writer
        # would produce.
        ids: list[int] = []
        scalars: list[tuple[int, int, int, int]] = []
        blobs: list[bytes] = []
        flags: list[int] = []
        taint_error = None
        for record in records:
            ids += (intern(record.kind), intern(record.array), intern(record.site))
            scalars.append(
                (record.seq, record.index, record.address, record.elem_size)
            )
            addr_runs, value_runs = record.addr_taint.runs, record.value_taint.runs
            try:
                blobs.append(taint_bytes(addr_runs) + taint_bytes(value_runs))
            except ValueError as exc:
                # A field error earlier in record order takes precedence.
                taint_error = exc
                break
            flags.append((bool(addr_runs) << 1) | bool(value_runs))
        seq, index, address, elem_size = _memory_fields(records, scalars)
        if taint_error is not None:
            raise taint_error

        string_ids = np.array(ids, dtype=np.int64).reshape(n, 3)
        fields = np.empty((7, n), dtype=np.int64)
        fields[0] = _zigzag(np.diff(seq, prepend=0))
        fields[1] = string_ids[:, 0]
        fields[2] = string_ids[:, 1]
        fields[3] = _zigzag(np.diff(index, prepend=0))
        fields[4] = elem_size
        fields[5] = _zigzag(np.diff(address, prepend=0))
        fields[6] = string_ids[:, 2]
        field_lens = _varint_lengths(fields)
        taint_lens = np.fromiter(map(len, blobs), dtype=np.int64, count=n)
        header_lens = field_lens.sum(axis=0)
        record_lens = header_lens + taint_lens
        record_starts = np.cumsum(record_lens) - record_lens
        out = np.empty(int(record_lens.sum()), dtype=np.uint8)
        field_offsets = record_starts + (np.cumsum(field_lens, axis=0) - field_lens)
        _scatter_varints(
            out, field_offsets.ravel(), fields.ravel(), field_lens.ravel()
        )
        # Each record's taint bytes follow its header: one gather of the
        # joined blobs into their record slots.
        blob_starts = np.cumsum(taint_lens) - taint_lens
        dest = np.repeat(record_starts + header_lens - blob_starts, taint_lens)
        dest += np.arange(dest.shape[0])
        out[dest] = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        entries = (record_lens << 2) | np.array(flags, dtype=np.int64)
        return out.tobytes(), entries


def _memory_fields(
    records: list[MemoryAccess], scalars: list[tuple[int, int, int, int]]
) -> np.ndarray:
    """``(seq, index, address, elem_size)`` columns of the first
    ``len(scalars)`` records, refusing any field outside +-2**61
    (``elem_size`` must also be non-negative) with a ``ValueError``
    naming the first such record."""
    cols = np.array(scalars).T
    if cols.dtype == np.int64:
        b = _FIELD_BOUND
        bad = ((cols[:3] <= -b) | (cols[:3] >= b)).any(axis=0)
        bad |= (cols[3] < 0) | (cols[3] >= b)
        first = int(np.argmax(bad)) if bad.any() else None
    else:
        # Past int64 (object/uint64 columns) or not integers at all.
        first = next(
            (k for k, (seq, index, address, elem_size) in enumerate(scalars)
             if not (-_FIELD_BOUND < seq < _FIELD_BOUND
                     and -_FIELD_BOUND < index < _FIELD_BOUND
                     and -_FIELD_BOUND < address < _FIELD_BOUND
                     and 0 <= elem_size < _FIELD_BOUND)),
            None,
        )
        if first is None:
            raise TypeError("memory record fields must be integers")
    if first is not None:
        raise ValueError(f"memory record {records[first].seq}: a field lies outside +-2**61")
    return cols


def _check_fingerprint_shape(rows: int, cols: int) -> int:
    """Sample count of a fingerprint record, refused with
    :class:`TraceFormatError` above the bound.  The reader calls it on
    the record header before allocating, and the writer before
    encoding."""
    size = rows * cols
    if size > MAX_FINGERPRINT_SAMPLES:
        raise TraceFormatError(
            f"fingerprint record of {rows} x {cols} samples exceeds the "
            f"{MAX_FINGERPRINT_SAMPLES}-sample bound"
        )
    return size


class _FingerprintCodec(_RecordCodec):
    """Run-length codec for boolean hit/miss tensors."""

    def __init__(self, strings: _StringTable) -> None:
        del strings  # fingerprint records carry no strings

    def encode(self, out: bytearray, record: FingerprintCapture) -> None:
        # Check the caller's samples before the int8 cast, which would
        # otherwise wrap 256 to 0 or truncate 0.5 to 0.
        samples = np.asarray(record.trace)
        if samples.ndim != 2:
            raise ValueError(f"fingerprint trace must be 2-D, got {samples.shape}")
        _check_fingerprint_shape(*samples.shape)
        if samples.size and not np.isin(samples, (0, 1)).all():
            raise ValueError("fingerprint trace must contain only 0/1 samples")
        if not (-_FIELD_BOUND < record.label < _FIELD_BOUND
                and 0 <= record.capture_seed < 1 << 63):
            raise ValueError("fingerprint label or capture seed out of range")
        write_svarint(out, record.label)
        write_uvarint(out, record.capture_seed)
        rows, cols = samples.shape
        write_uvarint(out, rows)
        write_uvarint(out, cols)
        flat = np.ascontiguousarray(samples, dtype=np.int8).reshape(-1)
        if not flat.size:
            return
        # Run boundaries via the classic diff trick; first value, then
        # the run lengths (they alternate, so values are implicit).
        boundaries = np.flatnonzero(np.diff(flat)) + 1
        runs = np.diff(np.concatenate(([0], boundaries, [flat.size])))
        out.append(int(flat[0]))
        write_uvarint(out, len(runs))
        out += _varint_stream(runs)


class _OracleCodec(_RecordCodec):
    """Delta+varint codec for OracleProbe records.

    Steps and query counts are monotone within an attack, so both are
    delta coded; labels repeat heavily (one per probe shape) and ride
    the string table; the observation stays an exact IEEE-754 double so
    replayed scores are bit-identical.
    """

    _OBSERVATION = struct.Struct("<d")

    def __init__(self, strings: _StringTable) -> None:
        self.strings = strings

    def begin_chunk(self) -> None:
        self._prev_step = 0
        self._prev_queries = 0

    def encode(self, out: bytearray, record: OracleProbe) -> None:
        if not (-_FIELD_BOUND < record.step < _FIELD_BOUND
                and 0 <= record.probe_len < _FIELD_BOUND
                and -_FIELD_BOUND < record.queries < _FIELD_BOUND):
            raise ValueError(
                "oracle step, probe length or query count outside +-2**61"
            )
        write_svarint(out, record.step - self._prev_step)
        self._prev_step = record.step
        write_uvarint(out, self.strings.intern(record.label))
        write_uvarint(out, record.probe_len)
        out.extend(self._OBSERVATION.pack(record.observation))
        write_svarint(out, record.queries - self._prev_queries)
        self._prev_queries = record.queries


_CODECS = {
    SPECIES_MEMORY: _MemoryCodec,
    SPECIES_FINGERPRINT: _FingerprintCodec,
    SPECIES_ORACLE: _OracleCodec,
}


# ----------------------------------------------------------------------
# Streaming writer; the header and chunk framing the reader shares
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
    ) -> None:
        if species not in _SPECIES_CODES:
            raise ValueError(f"unknown trace species {species!r}")
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self.species = species
        self.chunk_records = chunk_records
        self._stream = stream
        self._strings = _StringTable()
        self._codec = _CODECS[species](self._strings)
        self._buffer: list[TraceRecord] = []
        self._closed = False
        self.summary = TraceSummary(species=species)
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, _SPECIES_CODES[species], 0)
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
        # Interning happens while records encode, so the records go
        # first and the string-table prelude is emitted after them.
        records_block, entries = self._codec.encode_chunk(self._buffer)
        directory = _varint_stream(entries)
        payload = bytearray()
        self._strings.flush_prelude(payload)
        write_uvarint(payload, len(self._buffer))
        write_uvarint(payload, len(directory))
        payload += directory
        payload += records_block
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


def _read_header(stream: BinaryIO) -> str:
    """Read and check a trace file's header; returns its species."""
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, species_code, _ = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}: not a trace file")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version} (this reader "
            f"speaks {FORMAT_VERSION}; re-capture the trace)"
        )
    species = _SPECIES_NAMES.get(species_code)
    if species is None:
        raise TraceFormatError(f"unknown species code {species_code}")
    return species


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

