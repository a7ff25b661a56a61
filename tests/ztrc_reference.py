"""Record-at-a-time ZTRC decoder: the test reference for the columnar reader.

:mod:`repro.traces.columns` is the only ZTRC reader in ``src``.  It
decodes whole chunks into numpy columns, takes record boundaries and
taint booleans from each chunk's record directory, and never parses the
stored taint runs.  This module decodes the same bytes the way the
format was first read: one record after another, every field through
the scalar varint primitives, each taint rebuilt into a
:class:`~repro.taint.bittaint.BitTaint` from its stored run list.  It
gives back the objects the writer was handed
(:class:`~repro.exec.events.MemoryAccess`,
:class:`~repro.traces.format.FingerprintCapture`,
:class:`~repro.traces.format.OracleProbe`), so the equivalence suites
compare every column against it and the round-trip tests check stored
taint bit for bit.

It skips the record directory, so on crafted input it may accept what
the columnar reader refuses (or the reverse); on damaged input it too
either returns or raises :class:`~repro.traces.format.TraceFormatError`.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint
from repro.traces.format import (
    MAX_TAINT_BITS,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
    FingerprintCapture,
    OracleProbe,
    TraceFormatError,
    _check_fingerprint_shape,
    _iter_chunks,
    _read_header,
    _StringTable,
    read_uvarint,
)

_OBSERVATION = struct.Struct("<d")


def read_svarint(buf: memoryview, pos: int) -> tuple[int, int]:
    """Decode one zigzag varint at ``pos``; returns (value, new_pos)."""
    raw, pos = read_uvarint(buf, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


def lookup(strings: _StringTable, idx: int) -> str:
    """The string-table entry ``idx`` as of this point in the file."""
    try:
        return strings._strings[idx]
    except IndexError:
        raise TraceFormatError(f"string id {idx} out of range") from None


def decode_bittaint(buf: memoryview, pos: int) -> tuple[BitTaint, int]:
    """One stored taint: BitTaint's run list, each run as the gap from
    the previous run's end, its length, then its delta-coded sorted
    tags.  Runs are rebuilt, never expanded per bit."""
    n_runs, pos = read_uvarint(buf, pos)
    if not n_runs:
        return BitTaint.empty(), pos
    runs = []
    end = 0
    for _ in range(n_runs):
        gap, pos = read_uvarint(buf, pos)
        length, pos = read_uvarint(buf, pos)
        start = end + gap
        end = start + length
        if end > MAX_TAINT_BITS:
            raise TraceFormatError(f"taint run ends at bit {end}, past {MAX_TAINT_BITS}")
        n_tags, pos = read_uvarint(buf, pos)
        tags = []
        tag = 0
        for _ in range(n_tags):
            tag_delta, pos = read_uvarint(buf, pos)
            tag += tag_delta
            tags.append(tag)
        runs.append((start, end, frozenset(tags)))
    return BitTaint.from_runs(runs), pos


# ----------------------------------------------------------------------
# One chunk's records per species: ``(buf, pos, n_records, strings)`` to
# ``(records, pos)``.  Delta state restarts at every chunk.
# ----------------------------------------------------------------------
def _memory_records(buf, pos, n_records, strings):
    records = []
    seq = index = address = 0
    for _ in range(n_records):
        delta, pos = read_svarint(buf, pos)
        seq += delta
        kind_id, pos = read_uvarint(buf, pos)
        array_id, pos = read_uvarint(buf, pos)
        delta, pos = read_svarint(buf, pos)
        index += delta
        elem_size, pos = read_uvarint(buf, pos)
        delta, pos = read_svarint(buf, pos)
        address += delta
        site_id, pos = read_uvarint(buf, pos)
        addr_taint, pos = decode_bittaint(buf, pos)
        value_taint, pos = decode_bittaint(buf, pos)
        records.append(MemoryAccess(
            seq=seq,
            kind=lookup(strings, kind_id),
            array=lookup(strings, array_id),
            index=index,
            elem_size=elem_size,
            address=address,
            addr_taint=addr_taint,
            value_taint=value_taint,
            site=lookup(strings, site_id),
        ))
    return records, pos


def _fingerprint_records(buf, pos, n_records, strings):
    del strings  # fingerprint records carry no strings
    records = []
    for _ in range(n_records):
        label, pos = read_svarint(buf, pos)
        capture_seed, pos = read_uvarint(buf, pos)
        rows, pos = read_uvarint(buf, pos)
        cols, pos = read_uvarint(buf, pos)
        size = _check_fingerprint_shape(rows, cols)
        flat = np.zeros(size, dtype=np.int8)
        if size:
            if pos >= len(buf):
                raise TraceFormatError("truncated fingerprint record")
            value = buf[pos]
            pos += 1
            if value not in (0, 1):
                raise TraceFormatError(f"invalid fingerprint start value {value}")
            n_runs, pos = read_uvarint(buf, pos)
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
        records.append(
            FingerprintCapture(label, capture_seed, flat.reshape(rows, cols))
        )
    return records, pos


def _oracle_records(buf, pos, n_records, strings):
    records = []
    step = queries = 0
    for _ in range(n_records):
        delta, pos = read_svarint(buf, pos)
        step += delta
        label_id, pos = read_uvarint(buf, pos)
        probe_len, pos = read_uvarint(buf, pos)
        if pos + _OBSERVATION.size > len(buf):
            raise TraceFormatError("truncated oracle observation")
        (observation,) = _OBSERVATION.unpack_from(buf, pos)
        pos += _OBSERVATION.size
        delta, pos = read_svarint(buf, pos)
        queries += delta
        records.append(OracleProbe(
            step=step,
            label=lookup(strings, label_id),
            probe_len=probe_len,
            observation=observation,
            queries=queries,
        ))
    return records, pos


_SPECIES_RECORDS = {
    SPECIES_MEMORY: _memory_records,
    SPECIES_FINGERPRINT: _fingerprint_records,
    SPECIES_ORACLE: _oracle_records,
}


class ReferenceReader:
    """Single-pass reader over a ``.trc`` stream: iterate for records.

    Each chunk's CRC is checked before decoding; the record directory is
    skipped and the records are decoded in sequence from the bytes after
    it, which must end exactly at the chunk's end.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self.species = _read_header(stream)
        self._strings = _StringTable()
        self._consumed = False

    def __iter__(self):
        if self._consumed:
            raise ValueError("trace readers are single-pass; reopen the file")
        self._consumed = True
        decode = _SPECIES_RECORDS[self.species]
        for raw in _iter_chunks(self._stream):
            buf = memoryview(raw)
            pos = self._strings.read_prelude(buf, 0)
            n_records, pos = read_uvarint(buf, pos)
            dir_nbytes, pos = read_uvarint(buf, pos)
            if pos + dir_nbytes > len(buf):
                raise TraceFormatError("truncated record directory")
            records, pos = decode(buf, pos + dir_nbytes, n_records, self._strings)
            if pos != len(buf):
                raise TraceFormatError(f"{len(buf) - pos} trailing bytes in chunk")
            yield from records


def read_trace(path) -> list:
    """Every record of the ``.trc`` file at ``path``."""
    with open(path, "rb") as handle:
        return list(ReferenceReader(handle))


def deserialize_records(blob: bytes) -> list:
    """Inverse of :func:`repro.traces.format.serialize_records`."""
    return list(ReferenceReader(io.BytesIO(blob)))


def store_records(store, trace_id: str) -> list:
    """Every record of one trace in a :class:`~repro.traces.TraceStore`."""
    return read_trace(store.trace_path(trace_id))
