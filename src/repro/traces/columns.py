"""Columnar ZTRC decode: whole chunks into numpy arrays, no objects.

The object reader (:class:`repro.traces.format.TraceReader`) spends its
time constructing one :class:`~repro.exec.events.MemoryAccess` (plus two
:class:`~repro.taint.bittaint.BitTaint`) per record, while every
analysis pass downstream immediately reduces the record to two or three
integers (address, site id, kind id).  This module decodes the same
chunk bytes straight into int64 columns.

For version-2 files the chunk's record directory (see
:mod:`repro.traces.format`) makes this almost free of per-record Python
work:

1. record byte boundaries are a cumulative sum of the directory's
   length entries, and the per-record taint booleans are directory flag
   bits — the taint-run payloads are never decoded at all;
2. the seven header varints of *all* records in a chunk are assembled
   together, one byte lane at a time, over vectors of record offsets;
3. per-chunk delta fields (seq, index, address) become ``np.cumsum``.

Version-1 files (no directory) take a slower but still object-free
path: every varint in the chunk is decoded in one vectorised pass, then
a cursor walk over the value list recovers record boundaries.

Corruption detection is unchanged: every chunk's CRC is checked before
decoding and structural damage raises :class:`TraceFormatError`.  The
output is proven equal, field for field, to the object path
(``tests/test_traces_columns.py``); inputs the vectorised paths cannot
represent exactly (any varint beyond 63 bits, i.e. values past
``2**63 - 1``) fall back to object decoding transparently.

The ``oracle`` species stores fixed-width IEEE-754 doubles mid-record,
which breaks the uniform-varint property the version-1 path needs, and
its analyses are scalar anyway — :func:`read_trace_columns` raises
``ValueError`` for it.
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
    TraceFormatError,
    iter_trace,
    read_uvarint,
)

LINE_BITS = 6

# Values at or above 2**63 overflow the int64 columns the vectorised
# paths assemble into; any varint longer than this many bytes routes the
# whole trace through the object-path fallback.
_MAX_FAST_VARINT_BYTES = 9


@dataclass
class MemoryColumns:
    """One memory trace as parallel int64/bool columns.

    ``strings`` is the trace's interned string table; ``kind_id``,
    ``array_id`` and ``site_id`` index into it.  ``addr_tainted`` /
    ``value_tainted`` record whether each access carried any taint (the
    attacker-facing bit the export and replay paths consume; full
    per-bit tag sets remain on the object path).
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

    def string_ids(self, names: Sequence[str]) -> list[int]:
        """Table ids of the given strings (absent names simply match
        nothing, like a filter over objects would)."""
        wanted = set(names)
        return [i for i, s in enumerate(self.strings) if s in wanted]

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

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Resolve an id column to its strings (object-dtype array)."""
        table = np.array(self.strings, dtype=object)
        return table[ids]


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

    ``traces`` materialises lazily when the trace was decoded columnar
    (the run-length form is kept; :meth:`pooled` never needs the full
    tensors)."""

    labels: np.ndarray
    capture_seeds: np.ndarray
    _traces: Optional[list[np.ndarray]] = None  # per capture, (rows, cols) int8
    _rle: Optional[_FingerprintRle] = None

    species = SPECIES_FINGERPRINT

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def traces(self) -> list[np.ndarray]:
        if self._traces is None:
            assert self._rle is not None
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
        Returns None when the run-length form is unavailable, shapes
        are not uniform, or ``cols < width`` — callers fall back to the
        per-capture pooling path.
        """
        rle = self._rle
        if rle is None or not rle.shapes:
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


TraceColumns = Union[MemoryColumns, FingerprintColumns]


class _FallbackNeeded(Exception):
    """A chunk contains a varint the int64 fast path cannot hold."""


# ----------------------------------------------------------------------
# vectorised varint decoding
# ----------------------------------------------------------------------
def _decode_varint_stream(
    body: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode every LEB128 varint in ``body`` (uint8) in one pass.

    Returns ``(values, starts)`` — the decoded uint-interpreted values
    as int64 and each varint's byte offset (for error reporting).
    Raises :class:`_FallbackNeeded` when any varint exceeds the int64
    fast path and :class:`TraceFormatError` on a truncated tail.
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
    if max_len > _MAX_FAST_VARINT_BYTES:
        raise _FallbackNeeded
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
        if shift >= 7 * _MAX_FAST_VARINT_BYTES:
            raise _FallbackNeeded
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


def _safe_cumsum(deltas: np.ndarray) -> np.ndarray:
    """Per-chunk delta accumulation with an int64-overflow guard.

    ``n * max|delta|`` bounds every partial sum; when that bound could
    wrap int64 the caller must take the object path instead.  Real
    traces sit many orders of magnitude below the bound.
    """
    if deltas.size:
        peak = int(np.abs(deltas).max())
        if peak and peak > (1 << 62) // deltas.size:
            raise _FallbackNeeded
    return np.cumsum(deltas)


def _read_directory(
    raw: bytes, buf: memoryview, strings: _StringTable
) -> tuple[int, np.ndarray, int]:
    """Common v2 chunk prefix: prelude, count, record directory.

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


# ----------------------------------------------------------------------
# memory species
# ----------------------------------------------------------------------
def _decode_memory_chunk_v2(
    raw: bytes, strings: _StringTable, acc: dict
) -> None:
    """Directory-driven decode: no per-record Python in the hot loop."""
    buf = memoryview(raw)
    n_records, entries, base = _read_directory(raw, buf, strings)
    if base + int((entries >> 2).sum()) != len(raw):
        raise TraceFormatError(
            f"{len(raw) - base - int((entries >> 2).sum())} "
            f"trailing bytes in chunk"
        )
    if not n_records:
        return
    byte_lens = entries >> 2
    rec_starts = np.empty(n_records, dtype=np.int64)
    rec_starts[0] = 0
    np.cumsum(byte_lens[:-1], out=rec_starts[1:])
    rec_starts += base
    data = np.frombuffer(raw, dtype=np.uint8)
    pos = rec_starts
    fields = []
    for _ in range(7):
        value, pos = _gather_varints(data, pos)
        fields.append(value)
    # The taint-run payloads occupy the rest of each record; the
    # directory flags already carry the per-record taint booleans.
    if (pos > rec_starts + byte_lens).any():
        raise TraceFormatError("record fields overrun the directory entry")
    acc["seq"].append(_safe_cumsum(_unzigzag(fields[0])))
    acc["kind_id"].append(fields[1])
    acc["array_id"].append(fields[2])
    acc["index"].append(_safe_cumsum(_unzigzag(fields[3])))
    acc["elem_size"].append(fields[4])
    acc["address"].append(_safe_cumsum(_unzigzag(fields[5])))
    acc["site_id"].append(fields[6])
    acc["addr_tainted"].append((entries & 0b10) != 0)
    acc["value_tainted"].append((entries & 0b01) != 0)


def _decode_memory_chunk_v1(
    raw: bytes, strings: _StringTable, acc: dict
) -> None:
    """Legacy chunks: vectorised varint pass + cursor walk over values."""
    buf = memoryview(raw)
    prelude_end = strings.read_prelude(buf, 0)
    body = np.frombuffer(raw, dtype=np.uint8, offset=prelude_end)
    values, starts = _decode_varint_stream(body)
    v = values.tolist()
    if not v:
        raise TraceFormatError("truncated varint")
    n_records = v[0]
    i = 1
    rec_starts: list[int] = []
    addr_runs: list[int] = []
    value_runs: list[int] = []
    # One pass over the value stream recovers the record structure:
    # 7 fixed header fields, then the two taint encodings, each
    # ``n_runs`` of (gap, length, n_tags, tags...).
    try:
        for _ in range(n_records):
            rec_starts.append(i)
            i += 7
            n_runs = v[i]
            i += 1
            addr_runs.append(n_runs)
            for _ in range(n_runs):
                i += 3 + v[i + 2]
            n_runs = v[i]
            i += 1
            value_runs.append(n_runs)
            for _ in range(n_runs):
                i += 3 + v[i + 2]
    except IndexError:
        raise TraceFormatError("truncated varint") from None
    if i > len(v):
        raise TraceFormatError("truncated varint")
    if i != len(v):
        raise TraceFormatError(
            f"{len(body) - int(starts[i])} trailing bytes in chunk"
        )
    if not rec_starts:
        return
    rs = np.asarray(rec_starts, dtype=np.int64)
    acc["seq"].append(_safe_cumsum(_unzigzag(values[rs])))
    acc["kind_id"].append(values[rs + 1])
    acc["array_id"].append(values[rs + 2])
    acc["index"].append(_safe_cumsum(_unzigzag(values[rs + 3])))
    acc["elem_size"].append(values[rs + 4])
    acc["address"].append(_safe_cumsum(_unzigzag(values[rs + 5])))
    acc["site_id"].append(values[rs + 6])
    acc["addr_tainted"].append(np.asarray(addr_runs, dtype=np.int64) > 0)
    acc["value_tainted"].append(np.asarray(value_runs, dtype=np.int64) > 0)


_COLUMN_NAMES = (
    "seq", "kind_id", "array_id", "index", "elem_size",
    "address", "site_id", "addr_tainted", "value_tainted",
)


def _memory_columns(stream: BinaryIO, version: int) -> MemoryColumns:
    strings = _StringTable()
    acc: dict[str, list[np.ndarray]] = {name: [] for name in _COLUMN_NAMES}
    decode = _decode_memory_chunk_v2 if version >= 2 else _decode_memory_chunk_v1
    for raw in _iter_chunks(stream):
        decode(raw, strings, acc)

    def cat(name: str, dtype) -> np.ndarray:
        parts = acc[name]
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts)

    columns = MemoryColumns(
        seq=cat("seq", np.int64),
        kind_id=cat("kind_id", np.int64),
        array_id=cat("array_id", np.int64),
        index=cat("index", np.int64),
        elem_size=cat("elem_size", np.int64),
        address=cat("address", np.int64),
        site_id=cat("site_id", np.int64),
        addr_tainted=cat("addr_tainted", bool),
        value_tainted=cat("value_tainted", bool),
        strings=tuple(strings._strings),
    )
    n_strings = len(columns.strings)
    for ids in (columns.kind_id, columns.array_id, columns.site_id):
        if ids.size and (int(ids.max()) >= n_strings or int(ids.min()) < 0):
            raise TraceFormatError(
                f"string id {int(ids.max())} out of range"
            )
    return columns


def _memory_columns_from_records(records) -> MemoryColumns:
    """Object-path fallback (and test oracle): identical columns built
    from decoded :class:`MemoryAccess` records."""
    strings = _StringTable()
    seq, kind_id, array_id, index = [], [], [], []
    elem_size, address, site_id = [], [], []
    addr_tainted, value_tainted = [], []
    for record in records:
        seq.append(record.seq)
        kind_id.append(strings.intern(record.kind))
        array_id.append(strings.intern(record.array))
        index.append(record.index)
        elem_size.append(record.elem_size)
        address.append(record.address)
        site_id.append(strings.intern(record.site))
        addr_tainted.append(bool(record.addr_taint))
        value_tainted.append(bool(record.value_taint))
    def col(vals: list) -> np.ndarray:
        # Values past int64 (>63-bit varints are why we're on this
        # path at all) keep exact Python ints in an object column.
        try:
            return np.asarray(vals, dtype=np.int64)
        except OverflowError:
            return np.asarray(vals, dtype=object)

    return MemoryColumns(
        seq=col(seq),
        kind_id=np.asarray(kind_id, dtype=np.int64),
        array_id=np.asarray(array_id, dtype=np.int64),
        index=col(index),
        elem_size=col(elem_size),
        address=col(address),
        site_id=np.asarray(site_id, dtype=np.int64),
        addr_tainted=np.asarray(addr_tainted, dtype=bool),
        value_tainted=np.asarray(value_tainted, dtype=bool),
        strings=tuple(strings._strings),
    )


# ----------------------------------------------------------------------
# fingerprint species
# ----------------------------------------------------------------------
def _decode_fingerprint_chunk(
    raw: bytes, strings: _StringTable, version: int, acc: dict
) -> None:
    buf = memoryview(raw)
    prelude_end = strings.read_prelude(buf, 0)
    body = np.frombuffer(raw, dtype=np.uint8, offset=prelude_end)
    values, starts = _decode_varint_stream(body)
    v = values
    if not v.shape[0]:
        raise TraceFormatError("truncated varint")
    n_records = int(v[0])
    # The v2 record directory is one varint per record; fingerprint
    # chunks are all-varint streams, so skipping it is pure arithmetic.
    # Only the handful of header scalars per capture leave the array
    # (the run vectors stay as int64 views), so no wholesale tolist.
    i = 2 + n_records if version >= 2 else 1
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
            # decode-time work left is validating coverage.
            covered = int(runs.sum())
            if covered > size:
                raise TraceFormatError("fingerprint runs overflow the tensor")
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


def _fingerprint_columns(stream: BinaryIO, version: int) -> FingerprintColumns:
    strings = _StringTable()
    acc: dict = {
        "labels": [],
        "capture_seeds": [],
        "shapes": [],
        "starts": [],
        "runs": [],
    }
    for raw in _iter_chunks(stream):
        _decode_fingerprint_chunk(raw, strings, version, acc)
    return FingerprintColumns(
        labels=np.asarray(acc["labels"], dtype=np.int64),
        capture_seeds=np.asarray(acc["capture_seeds"], dtype=np.int64),
        _rle=_FingerprintRle(
            shapes=acc["shapes"], starts=acc["starts"], runs=acc["runs"]
        ),
    )


def _fingerprint_columns_from_records(records) -> FingerprintColumns:
    labels, seeds, traces = [], [], []
    for record in records:
        labels.append(record.label)
        seeds.append(record.capture_seed)
        traces.append(np.ascontiguousarray(record.trace, dtype=np.int8))
    return FingerprintColumns(
        labels=np.asarray(labels, dtype=np.int64),
        capture_seeds=np.asarray(seeds, dtype=np.int64),
        _traces=traces,
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def read_trace_columns(path) -> TraceColumns:
    """Decode a whole ``.trc`` file into columns (memory/fingerprint).

    Equivalent, field for field, to object decoding via
    :func:`repro.traces.format.read_trace` — the Hypothesis oracle in
    ``tests/test_traces_columns.py`` asserts exactly that.  Oracle
    traces have no columnar layout; use the object reader for them.
    """
    with open(path, "rb") as handle:
        species, version = _read_header(handle)
        if species == SPECIES_MEMORY:
            decode, fallback = _memory_columns, _memory_columns_from_records
        elif species == SPECIES_FINGERPRINT:
            decode, fallback = _fingerprint_columns, _fingerprint_columns_from_records
        else:
            raise ValueError(
                f"no columnar decoder for {species!r} traces; "
                f"use iter_trace/read_trace"
            )
        try:
            return decode(handle, version)
        except _FallbackNeeded:
            pass
    return fallback(iter_trace(path))
