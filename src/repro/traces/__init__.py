"""Trace capture, storage, and replay: capture-once / analyze-many.

Every attack in this reproduction separates into an expensive victim
simulation (a traced compression run, a 10,000-round Flush+Reload
sweep) and a cheap analysis (recovery decoding, classifier training).
This package decouples them:

* :mod:`repro.traces.format` — compact, versioned, chunked binary
  serialization for the trace species the repo produces (``memory``
  access streams, ``fingerprint`` hit/miss tensors, and ``oracle``
  per-guess probe streams), with per-record delta+varint coding and
  per-chunk CRCs;
* :mod:`repro.traces.columns` — the one reader: every species decoded
  chunk by chunk straight into numpy columns;
* :mod:`repro.traces.store` — an indexed on-disk :class:`TraceStore`
  (``*.trstore`` directories) with list/get/put/verify and corruption
  detection on read;
* :mod:`repro.traces.capture` — run a victim once, persist the
  attacker's observations plus the metadata analysis needs;
* :mod:`repro.traces.replay` — adapters that feed stored traces to the
  Section IV recovery decoders and the Section VI classifier,
  bit-identically to live captures.

CLI: ``python -m repro trace capture|list|verify|export``.  Campaign
integration: the ``trace_capture_*`` / ``*_from_store`` experiments in
:mod:`repro.campaign.experiments` capture a corpus in one sweep and fan
analysis jobs out over it in another.
"""

from repro.traces.columns import (
    FingerprintColumns,
    MemoryColumns,
    OracleColumns,
    read_trace_columns,
)
from repro.traces.format import (
    FORMAT_VERSION,
    FingerprintCapture,
    OracleProbe,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
    TraceFormatError,
    TraceSummary,
    TraceWriter,
    count_trace_records,
    serialize_records,
    write_trace,
)
from repro.traces.store import TraceEntry, TraceStore, VerifyReport, file_sha256
from repro.traces.capture import (
    capture_fingerprint_traces,
    capture_memory_trace,
    capture_oracle_trace,
    capture_survey_traces,
)
from repro.traces.replay import (
    dataset_from_store,
    fingerprint_experiment_from_store,
    recover_from_trace,
    replay_lines,
    replay_lines_array,
    survey_from_store,
    target_lines,
)

__all__ = [
    "FORMAT_VERSION",
    "FingerprintCapture",
    "FingerprintColumns",
    "MemoryColumns",
    "OracleColumns",
    "OracleProbe",
    "SPECIES_FINGERPRINT",
    "SPECIES_MEMORY",
    "SPECIES_ORACLE",
    "TraceEntry",
    "TraceFormatError",
    "TraceStore",
    "TraceSummary",
    "TraceWriter",
    "VerifyReport",
    "capture_fingerprint_traces",
    "capture_memory_trace",
    "capture_oracle_trace",
    "capture_survey_traces",
    "count_trace_records",
    "dataset_from_store",
    "file_sha256",
    "fingerprint_experiment_from_store",
    "read_trace_columns",
    "recover_from_trace",
    "replay_lines",
    "replay_lines_array",
    "serialize_records",
    "survey_from_store",
    "target_lines",
    "write_trace",
]
