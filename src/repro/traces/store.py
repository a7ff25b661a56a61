"""Indexed on-disk trace corpus: the capture-once/analyze-many layer.

Layout of one store directory (conventionally named ``<name>.trstore``)::

    <root>/
      manifest.json        store identity: format version, created_at
      traces/<id>.trc      the binary trace (see repro.traces.format)
      traces/<id>.json     sidecar entry: species, sha256, n_records,
                           size, created_at, and free-form metadata
                           (experiment id, input label, seed, capture
                           params, ...)

Each trace's sidecar is written atomically *after* its ``.trc`` file is
complete, so a crashed capture leaves at most an orphan ``.trc`` that
``list`` never surfaces and ``verify`` flags.  Because every trace owns
its own pair of files, parallel campaign workers can capture into the
same store without any cross-process locking — there is no shared file
two writers ever race on.

Corruption detection happens at two levels: every read
(:meth:`TraceStore.read_columns`) checks the per-chunk CRCs of the
binary format, and :meth:`TraceStore.verify` additionally recomputes
each file's SHA-256 against the sidecar.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.traces.format import (
    TraceFormatError,
    TraceWriter,
    TraceRecord,
    DEFAULT_CHUNK_RECORDS,
    count_trace_records,
)

MANIFEST_NAME = "manifest.json"
TRACES_DIR = "traces"
STORE_VERSION = 1

_ID_ALLOWED = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "0123456789._-")


def _check_trace_id(trace_id: str) -> str:
    if not trace_id or not set(trace_id) <= _ID_ALLOWED:
        raise ValueError(
            f"invalid trace id {trace_id!r}: use letters, digits, '.', "
            f"'_' and '-'"
        )
    return trace_id


def file_sha256(path) -> str:
    """SHA-256 of a file, streamed in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                return digest.hexdigest()
            digest.update(block)


@dataclass
class TraceEntry:
    """One trace's index record (the parsed sidecar)."""

    trace_id: str
    species: str
    sha256: str
    n_records: int
    size_bytes: int
    created_at: float
    meta: dict

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "species": self.species,
            "sha256": self.sha256,
            "n_records": self.n_records,
            "size_bytes": self.size_bytes,
            "created_at": self.created_at,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEntry":
        return cls(
            trace_id=data["trace_id"],
            species=data["species"],
            sha256=data["sha256"],
            n_records=int(data["n_records"]),
            size_bytes=int(data["size_bytes"]),
            created_at=float(data.get("created_at", 0.0)),
            meta=dict(data.get("meta", {})),
        )


@dataclass
class VerifyReport:
    """Outcome of :meth:`TraceStore.verify` for one trace."""

    trace_id: str
    ok: bool
    problem: Optional[str] = None


class _StoreWriter:
    """Context manager returned by :meth:`TraceStore.create`.

    Streams records into ``<id>.trc`` and registers the sidecar entry on
    successful close; on error the partial file is removed and no entry
    appears in the store.
    """

    def __init__(
        self,
        store: "TraceStore",
        trace_id: str,
        species: str,
        meta: dict,
        chunk_records: int,
    ) -> None:
        self._store = store
        self._trace_id = trace_id
        self._meta = meta
        self._path = store.trace_path(trace_id)
        self._tmp = self._path.with_suffix(".trc.tmp")
        self._handle = open(self._tmp, "wb")
        self._writer = TraceWriter(self._handle, species, chunk_records)
        self.entry: Optional[TraceEntry] = None

    def append(self, record: TraceRecord) -> None:
        self._writer.append(record)

    def extend(self, records) -> None:
        self._writer.extend(records)

    def close(self) -> TraceEntry:
        if self.entry is not None:
            return self.entry
        summary = self._writer.close()
        self._handle.close()
        os.replace(self._tmp, self._path)
        entry = TraceEntry(
            trace_id=self._trace_id,
            species=summary.species,
            sha256=file_sha256(self._path),
            n_records=summary.n_records,
            size_bytes=summary.size_bytes,
            created_at=time.time(),
            meta=self._meta,
        )
        self._store._write_entry(entry)
        self.entry = entry
        return entry

    def abort(self) -> None:
        self._handle.close()
        if self._tmp.exists():
            self._tmp.unlink()

    def __enter__(self) -> "_StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class TraceStore:
    """A directory of captured traces with list/get/put/verify."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / MANIFEST_NAME
        self.traces_dir = self.root / TRACES_DIR

    # -- lifecycle ------------------------------------------------------
    def exists(self) -> bool:
        return self.manifest_path.exists()

    def open(self, create: bool = True) -> "TraceStore":
        """Ensure the directory is an initialised store."""
        if self.exists():
            manifest = self._load_manifest()
            if manifest.get("store_version") != STORE_VERSION:
                raise ValueError(
                    f"{self.root} is a v{manifest.get('store_version')} "
                    f"trace store; this code speaks v{STORE_VERSION}"
                )
            return self
        if not create:
            raise FileNotFoundError(f"no trace store at {self.root}")
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self._atomic_json(
            self.manifest_path,
            {"store_version": STORE_VERSION, "created_at": time.time()},
        )
        return self

    def _load_manifest(self) -> dict:
        with open(self.manifest_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- paths ----------------------------------------------------------
    def trace_path(self, trace_id: str) -> Path:
        return self.traces_dir / f"{_check_trace_id(trace_id)}.trc"

    def entry_path(self, trace_id: str) -> Path:
        return self.traces_dir / f"{_check_trace_id(trace_id)}.json"

    # -- write ----------------------------------------------------------
    def create(
        self,
        trace_id: str,
        species: str,
        meta: Optional[dict] = None,
        overwrite: bool = False,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> _StoreWriter:
        """Open a streaming writer for a new trace.

        The trace becomes visible (listable) only when the writer closes
        cleanly.
        """
        self.open()
        if not overwrite and self.entry_path(trace_id).exists():
            raise FileExistsError(
                f"trace {trace_id!r} already exists in {self.root}; "
                f"pass overwrite=True to replace it"
            )
        return _StoreWriter(self, trace_id, species, dict(meta or {}), chunk_records)

    def put(
        self,
        trace_id: str,
        species: str,
        records,
        meta: Optional[dict] = None,
        overwrite: bool = False,
    ) -> TraceEntry:
        """Write a complete trace in one call; returns its entry."""
        with self.create(trace_id, species, meta, overwrite) as writer:
            writer.extend(records)
        assert writer.entry is not None
        return writer.entry

    def _write_entry(self, entry: TraceEntry) -> None:
        self._atomic_json(self.entry_path(entry.trace_id), entry.to_dict())

    @staticmethod
    def _atomic_json(path: Path, payload: dict) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    # -- read -----------------------------------------------------------
    def get(self, trace_id: str) -> TraceEntry:
        """The index entry for one trace (KeyError when absent)."""
        path = self.entry_path(trace_id)
        if not path.exists():
            raise KeyError(f"no trace {trace_id!r} in {self.root}")
        with open(path, "r", encoding="utf-8") as handle:
            return TraceEntry.from_dict(json.load(handle))

    def trace_ids(self) -> list[str]:
        if not self.traces_dir.is_dir():
            return []
        return sorted(p.stem for p in self.traces_dir.glob("*.json"))

    def list(
        self,
        species: Optional[str] = None,
        **meta_filters,
    ) -> list[TraceEntry]:
        """All entries, optionally filtered by species and metadata
        equality (``store.list(experiment="survey", target="zlib")``)."""
        out = []
        for trace_id in self.trace_ids():
            entry = self.get(trace_id)
            if species is not None and entry.species != species:
                continue
            if any(entry.meta.get(k) != v for k, v in meta_filters.items()):
                continue
            out.append(entry)
        return out

    def read_columns(self, trace_id: str):
        """Decode one trace straight into numpy columns: the one way
        to read a stored trace (chunk CRCs checked as read).

        Returns :class:`repro.traces.columns.MemoryColumns`,
        :class:`~repro.traces.columns.FingerprintColumns` or
        :class:`~repro.traces.columns.OracleColumns` after the file's
        species is checked against the index entry's.
        """
        from repro.traces.columns import read_trace_columns

        entry = self.get(trace_id)
        columns = read_trace_columns(self.trace_path(trace_id))
        if columns.species != entry.species:
            raise TraceFormatError(
                f"trace {trace_id!r}: file says species "
                f"{columns.species!r} but the index says "
                f"{entry.species!r}"
            )
        return columns

    def count_records(self, trace_id: str) -> int:
        """Record count from chunk headers alone (CRC-checked, no
        per-record decode) — what ``verify`` uses to cross-check the
        sidecar's ``n_records``."""
        self.get(trace_id)  # surface KeyError for unknown ids
        return count_trace_records(self.trace_path(trace_id))

    # -- integrity ------------------------------------------------------
    def verify(self, trace_id: Optional[str] = None) -> list[VerifyReport]:
        """Recompute hashes and CRC-check every chunk of one or all
        traces, cross-checking record counts against the sidecars.

        Also flags orphan ``.trc`` files that have no sidecar (a capture
        that died before committing).
        """
        reports: list[VerifyReport] = []
        ids = [trace_id] if trace_id is not None else self.trace_ids()
        for tid in ids:
            reports.append(self._verify_one(tid))
        if trace_id is None and self.traces_dir.is_dir():
            known = set(self.trace_ids())
            for orphan in sorted(self.traces_dir.glob("*.trc")):
                if orphan.stem not in known:
                    reports.append(
                        VerifyReport(orphan.stem, False, "orphan trace file (no index entry)")
                    )
        return reports

    def _verify_one(self, trace_id: str) -> VerifyReport:
        try:
            entry = self.get(trace_id)
        except KeyError as exc:
            return VerifyReport(trace_id, False, str(exc))
        path = self.trace_path(trace_id)
        if not path.exists():
            return VerifyReport(trace_id, False, "trace file missing")
        actual_sha = file_sha256(path)
        if actual_sha != entry.sha256:
            return VerifyReport(
                trace_id,
                False,
                f"sha256 mismatch: index {entry.sha256[:12]}…, "
                f"file {actual_sha[:12]}…",
            )
        try:
            n = count_trace_records(path)
        except TraceFormatError as exc:
            return VerifyReport(trace_id, False, f"decode failed: {exc}")
        if n != entry.n_records:
            return VerifyReport(
                trace_id,
                False,
                f"record count mismatch: index {entry.n_records}, file {n}",
            )
        return VerifyReport(trace_id, True)

    def delete(self, trace_id: str) -> None:
        """Remove a trace and its index entry."""
        entry_path = self.entry_path(trace_id)
        trace_path = self.trace_path(trace_id)
        if not entry_path.exists() and not trace_path.exists():
            raise KeyError(f"no trace {trace_id!r} in {self.root}")
        # Entry first: a half-deleted trace must not stay listable.
        if entry_path.exists():
            entry_path.unlink()
        if trace_path.exists():
            trace_path.unlink()
