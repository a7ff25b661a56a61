"""Columnar ZTRC decode: whole chunks into numpy arrays, no objects.

This is the one ZTRC reader, for all three species.  Every analysis of
a stored trace reduces each record to a few numbers (a memory access to
its address, site id and kind id), so the reader decodes chunk bytes
straight into int64 columns (float64 for oracle observations) and
never builds a record object.

The chunk's record directory (see :mod:`repro.traces.format`) makes
this almost free of per-record Python work:

1. record byte boundaries are a cumulative sum of the directory's
   length entries, and the per-record taint booleans are directory flag
   bits — the taint-run payloads are never decoded at all;
2. the fixed fields of *all* records in a chunk (seven varints per
   memory record; four varints and one 8-byte lane per oracle record)
   are assembled together, one byte lane at a time, over vectors of
   record offsets;
3. per-chunk delta fields (seq, index, address; step, queries) become
   ``np.cumsum``, with an exact per-step int64 overflow test.

Fingerprint records are all varints, so their chunks decode as one
varint stream and keep their run-length form.

Every integer column is int64, so a varint longer than nine bytes or a
running sum that leaves int64 raises :class:`TraceFormatError`; the
writer refuses the records that would produce either.  Every chunk's
CRC is checked before decoding, and structural damage raises
:class:`TraceFormatError` too: a directory that does not tile its
chunk, fields that overrun their record (an oracle record must end
exactly at its directory boundary), a string id past the table.

The directory flags are the reader's whole view of taint.  The stored
taint runs stay in the file as the writer wrote them, but no code in
``repro`` parses them yet.

On every file the writer produces, the columns equal, field for field,
what the test suite's record-at-a-time reference decoder
(``tests/ztrc_reference.py``) rebuilds from the same bytes
(``tests/test_traces_columns.py``); on damaged input the reader returns
or raises :class:`TraceFormatError` (``tests/test_traces_format.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence, Union

import numpy as np

from repro.traces.format import (
    _check_fingerprint_shape,
    _iter_chunks,
    _read_header,
    _StringTable,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
    TraceFormatError,
    read_uvarint,
)

LINE_BITS = 6

# Nine varint bytes carry 63 bits, the most an int64 column holds; a
# longer varint is refused.
_MAX_VARINT_BYTES = 9


class _InternedColumns:
    """Lookups into ``strings``, the trace's interned string table, for
    the species whose records carry string ids."""

    strings: tuple[str, ...]

    def string_ids(self, names: Sequence[str]) -> list[int]:
        """Table ids of the given strings (absent names simply match
        nothing, like a filter over objects would)."""
        wanted = set(names)
        return [i for i, s in enumerate(self.strings) if s in wanted]

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Resolve an id column to its strings (object-dtype array)."""
        table = np.array(self.strings, dtype=object)
        return table[ids]


@dataclass
class MemoryColumns(_InternedColumns):
    """One memory trace as parallel int64/bool columns.

    ``kind_id``, ``array_id`` and ``site_id`` index into ``strings``.
    ``addr_tainted`` / ``value_tainted`` record whether each access
    carried any taint: the directory flag bits, which are the
    attacker-facing bit the export and replay paths consume.
    """

    seq: np.ndarray
    kind_id: np.ndarray
    array_id: np.ndarray
    index: np.ndarray
    elem_size: np.ndarray
    address: np.ndarray
    site_id: np.ndarray
    addr_tainted: np.ndarray
    value_tainted: np.ndarray
    strings: tuple[str, ...]

    species = SPECIES_MEMORY

    @property
    def n(self) -> int:
        return int(self.address.shape[0])

    def lines(self) -> np.ndarray:
        """Per-record cache line — the attacker's ``address >> 6`` view."""
        return self.address >> LINE_BITS

    def mask(
        self,
        sites: Optional[Sequence[str]] = None,
        kind: Optional[str] = None,
    ) -> np.ndarray:
        """Boolean record mask for the replay filters (site set, kind)."""
        mask = np.ones(self.n, dtype=bool)
        if sites is not None:
            mask &= np.isin(self.site_id, self.string_ids(tuple(sites)))
        if kind is not None:
            mask &= np.isin(self.kind_id, self.string_ids((kind,)))
        return mask


@dataclass
class _FingerprintRle:
    """Run-length form of a fingerprint trace, exactly as stored: per
    capture the tensor shape, the RAW start value, and the run-length
    vector (values alternate from the start value).  Kept instead of the
    materialised tensors so pooling analyses can stay in the run domain;
    :meth:`materialise` expands to the tensors on demand."""

    shapes: list[tuple[int, int]]
    starts: list[int]
    runs: list[np.ndarray]

    def materialise(self) -> list[np.ndarray]:
        out = []
        for (rows, cols), start, runs in zip(
            self.shapes, self.starts, self.runs
        ):
            if not rows * cols:
                out.append(np.zeros((rows, cols), dtype=np.int8))
                continue
            values = (
                (start + np.arange(runs.shape[0], dtype=np.int64)) & 1
            ).astype(np.int8)
            out.append(np.repeat(values, runs).reshape(rows, cols))
        return out


@dataclass
class FingerprintColumns:
    """One fingerprint trace: per-capture labels, seeds, and tensors.

    The run-length form is kept as stored; ``traces`` materialises the
    tensors on first use, and :meth:`pooled` never needs them."""

    labels: np.ndarray
    capture_seeds: np.ndarray
    _rle: _FingerprintRle
    _traces: Optional[list[np.ndarray]] = None  # per capture, (rows, cols) int8

    species = SPECIES_FINGERPRINT

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def traces(self) -> list[np.ndarray]:
        if self._traces is None:
            self._traces = self._rle.materialise()
        return self._traces

    def stacked(self) -> Optional[np.ndarray]:
        """All captures as one (n, rows, cols) tensor, or None when the
        capture shapes are not uniform."""
        if not self.traces:
            return None
        shape = self.traces[0].shape
        if any(t.shape != shape for t in self.traces):
            return None
        return np.stack(self.traces)

    def pooled(self, width: int) -> Optional[np.ndarray]:
        """Every capture max-pooled to ``(rows, width)``, computed in
        the run domain: a pooling window is 1 iff a 1-run overlaps it,
        so interval marking over the run boundaries replaces tensor
        materialisation entirely.  Bit-identical to ``pool_trace`` over
        :attr:`traces` (the tensors are 0/1, so max is presence).
        Returns None when there are no captures, shapes are not
        uniform, or ``cols < width`` — callers fall back to the
        per-capture pooling path.
        """
        rle = self._rle
        if not rle.shapes:
            return None
        rows, cols = rle.shapes[0]
        if any(s != (rows, cols) for s in rle.shapes):
            return None
        stride = cols // width
        if stride < 1:
            return None
        n = self.n
        counts = np.array([r.shape[0] for r in rle.runs], dtype=np.int64)
        total = int(counts.sum())
        out_shape = (n, rows, width)
        if not total:
            return np.zeros(out_shape, dtype=np.int8)
        lengths = np.concatenate(rle.runs)
        g_end = np.cumsum(lengths)
        # Pick out the 1-runs: a run's value is (start + ordinal) & 1
        # with ordinal its index within the capture, so its parity is
        # global-index parity XOR (capture block start + start) parity.
        block = np.cumsum(counts) - counts
        offsets = np.asarray(rle.starts, dtype=np.int64) + block
        one = (
            (np.arange(total, dtype=np.int64) ^ np.repeat(offsets, counts)) & 1
        ) == 1
        e1 = g_end[one]
        s1 = e1 - lengths[one]
        n_windows = n * rows * width
        if not e1.shape[0]:
            return np.zeros(out_shape, dtype=np.int8)
        if stride * width == cols:
            # No column truncation: the windows tile every capture
            # contiguously, and stride divides the row length, so a
            # sample's window is just its global index // stride.  The
            # 1-runs are disjoint and in position order, so the window
            # intervals are sorted — merge overlapping neighbours and
            # expand each merged interval to explicit marks.
            w_lo = s1 // stride
            w_hi = (e1 - 1) // stride
            keep = np.empty(w_lo.shape[0], dtype=bool)
            keep[0] = True
            np.greater(w_lo[1:], w_hi[:-1], out=keep[1:])
            lo = w_lo[keep]
            idx = np.flatnonzero(keep)
            hi = np.empty_like(lo)
            hi[:-1] = w_hi[idx[1:] - 1]
            hi[-1] = w_hi[-1]
            spans = hi - lo + 1
            cum = np.cumsum(spans)
            offs = np.arange(int(cum[-1]), dtype=np.int64) - np.repeat(
                cum - spans, spans
            )
            flat = np.zeros(n_windows, dtype=np.int8)
            flat[np.repeat(lo, spans) + offs] = 1
            return flat.reshape(out_shape)
        else:
            # Truncated columns: clip each run to every row's surviving
            # [0, stride*width) span before mapping to windows.
            size = rows * cols
            cap1 = np.repeat(np.arange(n, dtype=np.int64), counts)[one]
            e_loc = e1 - cap1 * size
            s_loc = e_loc - (e1 - s1)
            span = stride * width
            lo_parts, hi_parts = [], []
            for r in range(rows):
                row_base = r * cols
                s_r = np.maximum(s_loc, row_base)
                e_r = np.minimum(e_loc, row_base + span)
                valid = s_r < e_r
                if not valid.any():
                    continue
                w_base = cap1[valid] * (rows * width) + r * width
                lo_parts.append(w_base + (s_r[valid] - row_base) // stride)
                hi_parts.append(w_base + (e_r[valid] - 1 - row_base) // stride)
            if not lo_parts:
                return np.zeros(out_shape, dtype=np.int8)
            w_lo = np.concatenate(lo_parts)
            w_hi = np.concatenate(hi_parts)
        # Mark covered windows by boundary counting: +1 where a 1-run's
        # window interval opens, -1 one past its close; a window holds a
        # 1 iff the running sum is positive.
        delta = np.bincount(w_lo, minlength=n_windows + 1)
        delta -= np.bincount(w_hi + 1, minlength=n_windows + 1)
        flat = (np.cumsum(delta[:n_windows]) > 0).view(np.int8)
        return flat.reshape(out_shape)


@dataclass
class OracleColumns(_InternedColumns):
    """One oracle trace as parallel columns, one row per scored probe.

    ``step``, ``label_id`` (an index into ``strings``), ``probe_len``
    and ``queries`` (the cumulative oracle-query count) are int64;
    ``observation`` is the probe's float64 score, bit for bit as the
    attack recorded it (``-0.0``, infinities and NaN payloads
    included).
    """

    step: np.ndarray
    label_id: np.ndarray
    probe_len: np.ndarray
    observation: np.ndarray
    queries: np.ndarray
    strings: tuple[str, ...]

    species = SPECIES_ORACLE

    @property
    def n(self) -> int:
        return int(self.step.shape[0])


TraceColumns = Union[MemoryColumns, FingerprintColumns, OracleColumns]


# ----------------------------------------------------------------------
# vectorised varint decoding
# ----------------------------------------------------------------------
def _decode_varint_stream(
    body: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode every LEB128 varint in ``body`` (uint8) in one pass.

    Returns ``(values, starts)`` — the decoded uint-interpreted values
    as int64 and each varint's byte offset (for error reporting).
    Raises :class:`TraceFormatError` on a varint past nine bytes or a
    truncated tail.
    """
    if body.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ends = np.flatnonzero(body < 0x80)
    if ends.size == 0 or ends[-1] != body.size - 1:
        raise TraceFormatError("truncated varint")
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > _MAX_VARINT_BYTES:
        raise TraceFormatError(f"{max_len}-byte varint overflows int64")
    # Gather lane by lane from the uint8 body: only the (shrinking) set
    # of varints long enough for each lane pays the int64 widening, so
    # the body is never materialised as int64 wholesale.
    values = (body[starts] & 0x7F).astype(np.int64)
    for k in range(1, max_len):
        longer = np.flatnonzero(lengths > k)
        lane = body[starts[longer] + k] & 0x7F
        values[longer] |= lane.astype(np.int64) << (7 * k)
    return values, starts


def _gather_varints(
    data: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble one varint *per row* of ``pos``, all rows in lockstep.

    ``data`` is the whole chunk as uint8; ``pos`` holds each row's
    varint start offset.  Returns ``(values, next_pos)`` so successive
    fields of fixed-field records chain through repeated calls.  Byte
    lanes are processed together: rows whose varint has ended drop out
    of the active set, so the loop runs max-varint-length times, not
    once per row.
    """
    n = pos.shape[0]
    values = np.zeros(n, dtype=np.int64)
    cur = pos.astype(np.int64, copy=True)
    active = np.arange(n)
    limit = data.shape[0]
    shift = 0
    while active.size:
        if shift >= 7 * _MAX_VARINT_BYTES:
            raise TraceFormatError("varint past nine bytes overflows int64")
        offsets = cur[active]
        if int(offsets.max()) >= limit:
            raise TraceFormatError("truncated varint")
        byte = data[offsets]
        values[active] |= (byte & 0x7F).astype(np.int64) << shift
        cur[active] += 1
        active = active[(byte & 0x80) != 0]
        shift += 7
    return values, cur


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Vectorised inverse of the zigzag map (svarint payloads)."""
    return (values >> 1) ^ -(values & 1)


def _checked_cumsum(deltas: np.ndarray) -> np.ndarray:
    """Per-chunk delta accumulation that refuses to leave int64.

    A step overflows exactly when the running sum before it and the
    delta share a sign the wrapped result lacks.  Every step before the
    first overflow is exact, so the test catches that first one.
    """
    sums = np.cumsum(deltas)
    before = sums - deltas
    if (((before ^ sums) & (deltas ^ sums)) < 0).any():
        raise TraceFormatError("delta-coded field leaves int64")
    return sums


def _read_directory(
    raw: bytes, buf: memoryview, strings: _StringTable
) -> tuple[int, np.ndarray, int]:
    """Common chunk prefix: prelude, count, record directory.

    Returns ``(n_records, directory_values, records_base)`` where
    ``records_base`` is the byte offset of the first record.
    """
    pos = strings.read_prelude(buf, 0)
    n_records, pos = read_uvarint(buf, pos)
    dir_nbytes, pos = read_uvarint(buf, pos)
    if pos + dir_nbytes > len(buf):
        raise TraceFormatError("truncated record directory")
    dir_bytes = np.frombuffer(raw, dtype=np.uint8, offset=pos, count=dir_nbytes)
    entries, _ = _decode_varint_stream(dir_bytes)
    if entries.shape[0] != n_records:
        raise TraceFormatError(
            f"record directory holds {entries.shape[0]} entries "
            f"for {n_records} records"
        )
    return n_records, entries, pos + dir_nbytes


def _record_bounds(
    raw: bytes, entries: np.ndarray, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offset of every record; the directory's lengths
    must tile the chunk from ``base`` to its last byte exactly."""
    byte_lens = entries >> 2
    # Bounding each length first keeps the sum from wrapping.
    if (byte_lens > len(raw)).any() or base + int(byte_lens.sum()) != len(raw):
        raise TraceFormatError("record directory does not tile the chunk")
    ends = np.cumsum(byte_lens) + base
    return ends - byte_lens, ends


def _check_string_ids(strings: _StringTable, *id_columns: np.ndarray) -> None:
    """Refuse ids past the string table as read so far (a gathered id is
    at most nine varint bytes, so never negative)."""
    n_strings = len(strings._strings)
    for ids in id_columns:
        if ids.size and int(ids.max()) >= n_strings:
            raise TraceFormatError(f"string id {int(ids.max())} out of range")


def _decode_chunks(stream: BinaryIO, decode_chunk, dtypes: dict) -> tuple[dict, tuple]:
    """Run ``decode_chunk`` over every chunk; returns the concatenated
    column of each name in ``dtypes`` and the final string table."""
    strings = _StringTable()
    acc: dict[str, list[np.ndarray]] = {name: [] for name in dtypes}
    for raw in _iter_chunks(stream):
        decode_chunk(raw, strings, acc)
    columns = {
        name: np.concatenate(parts) if parts else np.empty(0, dtype=dtypes[name])
        for name, parts in acc.items()
    }
    return columns, tuple(strings._strings)


# ----------------------------------------------------------------------
# memory species
# ----------------------------------------------------------------------
def _decode_memory_chunk(raw: bytes, strings: _StringTable, acc: dict) -> None:
    """Directory-driven decode: no per-record Python in the hot loop."""
    buf = memoryview(raw)
    n_records, entries, base = _read_directory(raw, buf, strings)
    rec_starts, rec_ends = _record_bounds(raw, entries, base)
    if not n_records:
        return
    data = np.frombuffer(raw, dtype=np.uint8)
    pos = rec_starts
    fields = []
    for _ in range(7):
        value, pos = _gather_varints(data, pos)
        fields.append(value)
    # The taint-run payloads occupy the rest of each record; the
    # directory flags already carry the per-record taint booleans.
    if (pos > rec_ends).any():
        raise TraceFormatError("record fields overrun the directory entry")
    _check_string_ids(strings, fields[1], fields[2], fields[6])
    acc["seq"].append(_checked_cumsum(_unzigzag(fields[0])))
    acc["kind_id"].append(fields[1])
    acc["array_id"].append(fields[2])
    acc["index"].append(_checked_cumsum(_unzigzag(fields[3])))
    acc["elem_size"].append(fields[4])
    acc["address"].append(_checked_cumsum(_unzigzag(fields[5])))
    acc["site_id"].append(fields[6])
    acc["addr_tainted"].append((entries & 0b10) != 0)
    acc["value_tainted"].append((entries & 0b01) != 0)


_MEMORY_DTYPES = {
    "seq": np.int64, "kind_id": np.int64, "array_id": np.int64,
    "index": np.int64, "elem_size": np.int64, "address": np.int64,
    "site_id": np.int64, "addr_tainted": bool, "value_tainted": bool,
}


def _memory_columns(stream: BinaryIO) -> MemoryColumns:
    columns, strings = _decode_chunks(stream, _decode_memory_chunk, _MEMORY_DTYPES)
    return MemoryColumns(**columns, strings=strings)


# ----------------------------------------------------------------------
# fingerprint species
# ----------------------------------------------------------------------
def _decode_fingerprint_chunk(raw: bytes, strings: _StringTable, acc: dict) -> None:
    buf = memoryview(raw)
    n_records, _, base = _read_directory(raw, buf, strings)
    # Fingerprint records are all-varint streams: decode the records
    # region in one pass.  Only the handful of header scalars per
    # capture leave the array (the run vectors stay as int64 views).
    body = np.frombuffer(raw, dtype=np.uint8, offset=base)
    values, starts = _decode_varint_stream(body)
    v = values
    i = 0
    try:
        for _ in range(n_records):
            raw_label = int(v[i])
            acc["labels"].append((raw_label >> 1) ^ -(raw_label & 1))
            acc["capture_seeds"].append(int(v[i + 1]))
            rows, cols = int(v[i + 2]), int(v[i + 3])
            i += 4
            size = _check_fingerprint_shape(rows, cols)
            if not size:
                acc["shapes"].append((rows, cols))
                acc["starts"].append(0)
                acc["runs"].append(np.zeros(0, dtype=np.int64))
                continue
            start_value = int(v[i])
            if start_value not in (0, 1):
                raise TraceFormatError(
                    f"invalid fingerprint start value {start_value}"
                )
            n_runs = int(v[i + 1])
            i += 2
            runs = values[i : i + n_runs]
            if runs.shape[0] != n_runs:
                raise TraceFormatError("truncated varint")
            i += n_runs
            # Run values alternate from start_value; the run-length
            # form is kept as-is (materialised lazily), so the only
            # decode-time work left is validating coverage.  Bounding
            # each run first keeps the sum from wrapping.
            if n_runs and int(runs.max()) > size:
                raise TraceFormatError("fingerprint runs overflow the tensor")
            covered = int(runs.sum())
            if covered != size:
                raise TraceFormatError(
                    f"fingerprint runs cover {covered} of {size} samples"
                )
            acc["shapes"].append((rows, cols))
            acc["starts"].append(start_value)
            acc["runs"].append(runs)
    except IndexError:
        raise TraceFormatError("truncated varint") from None
    if i != len(v):
        raise TraceFormatError(
            f"{len(body) - int(starts[i])} trailing bytes in chunk"
        )


def _fingerprint_columns(stream: BinaryIO) -> FingerprintColumns:
    strings = _StringTable()
    acc: dict = {
        "labels": [],
        "capture_seeds": [],
        "shapes": [],
        "starts": [],
        "runs": [],
    }
    for raw in _iter_chunks(stream):
        _decode_fingerprint_chunk(raw, strings, acc)
    return FingerprintColumns(
        labels=np.asarray(acc["labels"], dtype=np.int64),
        capture_seeds=np.asarray(acc["capture_seeds"], dtype=np.int64),
        _rle=_FingerprintRle(
            shapes=acc["shapes"], starts=acc["starts"], runs=acc["runs"]
        ),
    )


# ----------------------------------------------------------------------
# oracle species
# ----------------------------------------------------------------------
_OBSERVATION_BYTES = 8


def _decode_oracle_chunk(raw: bytes, strings: _StringTable, acc: dict) -> None:
    """Per record: step delta, label id, probe length, a little-endian
    double, queries delta.  The varints are gathered for the whole
    chunk and the doubles read as one 8-byte lane; each record must end
    exactly at its directory boundary."""
    buf = memoryview(raw)
    n_records, entries, base = _read_directory(raw, buf, strings)
    rec_starts, rec_ends = _record_bounds(raw, entries, base)
    if not n_records:
        return
    data = np.frombuffer(raw, dtype=np.uint8)
    step, pos = _gather_varints(data, rec_starts)
    label_id, pos = _gather_varints(data, pos)
    probe_len, pos = _gather_varints(data, pos)
    if (pos + _OBSERVATION_BYTES > rec_ends).any():
        raise TraceFormatError("truncated oracle observation")
    lane = data[pos[:, None] + np.arange(_OBSERVATION_BYTES)]
    observation = lane.view("<f8").reshape(n_records)
    queries, pos = _gather_varints(data, pos + _OBSERVATION_BYTES)
    if (pos != rec_ends).any():
        raise TraceFormatError("oracle record does not end at its directory entry")
    _check_string_ids(strings, label_id)
    acc["step"].append(_checked_cumsum(_unzigzag(step)))
    acc["label_id"].append(label_id)
    acc["probe_len"].append(probe_len)
    acc["observation"].append(observation)
    acc["queries"].append(_checked_cumsum(_unzigzag(queries)))


_ORACLE_DTYPES = {
    "step": np.int64, "label_id": np.int64, "probe_len": np.int64,
    "observation": np.float64, "queries": np.int64,
}


def _oracle_columns(stream: BinaryIO) -> OracleColumns:
    columns, strings = _decode_chunks(stream, _decode_oracle_chunk, _ORACLE_DTYPES)
    return OracleColumns(**columns, strings=strings)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
_SPECIES_COLUMNS = {
    SPECIES_MEMORY: _memory_columns,
    SPECIES_FINGERPRINT: _fingerprint_columns,
    SPECIES_ORACLE: _oracle_columns,
}


def read_trace_columns(path) -> TraceColumns:
    """Decode a whole ``.trc`` file of any species into columns.

    Equal, field for field, to the test suite's record-at-a-time
    reference decoder on every file the writer produces; the Hypothesis
    suites in ``tests/test_traces_columns.py`` assert exactly that.
    """
    with open(path, "rb") as handle:
        return _SPECIES_COLUMNS[_read_header(handle)](handle)
