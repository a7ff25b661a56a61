"""Victim-side capture: run a kernel once, persist what the attacker saw.

Capture is the expensive half of every experiment — a traced bzip2 run
or a 10,000-round Flush+Reload sweep re-executes the victim — so these
helpers run it exactly once and stream the result into a
:class:`~repro.traces.store.TraceStore`, together with everything an
analysis pass later needs:

* **memory traces** record the tainted :class:`MemoryAccess` stream of a
  named survey target (``zlib``/``lzw``/``bzip2``), plus the array base
  addresses and input provenance (kind, size, seed) in metadata — the
  recovery decoders need the bases, and the input regenerates from its
  seed for accuracy scoring without storing the secret itself;
* **fingerprint traces** record one raw 2 x N_SAMPLES capture per
  classifier example with its per-capture seed
  (:func:`~repro.core.zipchannel.fingerprint.derive_capture_seed`), so a
  stored dataset is bit-identical to the live
  :func:`~repro.core.zipchannel.fingerprint.build_dataset` output under
  the same base seed.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

from repro import obs
from repro.recovery import survey
from repro.recovery.survey import run_memory_target
from repro.traces.format import (
    FingerprintCapture,
    OracleProbe,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
)
from repro.traces.store import TraceEntry, TraceStore

FINGERPRINT_CORPORA = ("brotli", "lipsum")


def _input_for(input_kind: str, size: int, seed: int) -> bytes:
    from repro.campaign.experiments import make_input

    return make_input(input_kind, size, seed)


def capture_memory_trace(
    store: TraceStore,
    trace_id: str,
    target: str,
    size: int,
    seed: int,
    input_kind: Optional[str] = None,
    overwrite: bool = False,
    extra_meta: Optional[dict] = None,
) -> TraceEntry:
    """Capture one survey target's tainted access trace into the store.

    The stored metadata carries the recovery parameters (array bases,
    input provenance); :mod:`repro.traces.replay` turns the pair back
    into the exact inputs the Section IV decoders take.
    """
    input_kind = input_kind or survey.input_kind(target)
    data = _input_for(input_kind, size, seed)
    with obs.span(
        "trace.capture.memory", trace_id=trace_id, target=target, size=size
    ):
        ctx = run_memory_target(target, data)
    ctx.publish_stats()
    meta = {
        "species": SPECIES_MEMORY,
        "target": target,
        "input_kind": input_kind,
        "size": size,
        "input_seed": seed,
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "bases": survey.array_bases(ctx),
        **(extra_meta or {}),
    }
    with store.create(
        trace_id, SPECIES_MEMORY, meta, overwrite=overwrite
    ) as writer:
        writer.extend(ctx.tainted_accesses())
    assert writer.entry is not None
    obs.counter_add("trace.records", writer.entry.n_records)
    return writer.entry


def fingerprint_corpus(corpus: str) -> list[bytes]:
    """The named fingerprint corpus as an ordered file list (order is
    the label assignment, so it must match live dataset assembly)."""
    from repro.workloads import brotli_like_corpus, repetitiveness_series

    if corpus == "brotli":
        return list(brotli_like_corpus().values())
    if corpus == "lipsum":
        return repetitiveness_series()
    raise ValueError(
        f"unknown corpus {corpus!r}; choose from {FINGERPRINT_CORPORA}"
    )


def capture_fingerprint_traces(
    store: TraceStore,
    trace_id: str,
    corpus: str,
    traces_per_file: int,
    seed: int,
    channel_params: Optional[dict] = None,
    work_factor: Optional[int] = None,
    overwrite: bool = False,
    extra_meta: Optional[dict] = None,
    max_file_bytes: Optional[int] = None,
) -> TraceEntry:
    """Capture a whole fingerprint dataset into one stored trace.

    One :class:`FingerprintCapture` record per (file, repetition), each
    carrying its derived capture seed; the victim timeline is computed
    once per file (the compression run) and sampled ``traces_per_file``
    times (the cheap, noisy part) — same structure as live
    :func:`~repro.core.zipchannel.fingerprint.build_dataset`.
    """
    from repro.core.zipchannel.fingerprint import (
        FingerprintChannel,
        capture_raw_trace,
        derive_capture_seed,
        victim_timeline,
    )

    files = fingerprint_corpus(corpus)
    if max_file_bytes is not None:
        files = [f[: int(max_file_bytes)] for f in files]
    channel = FingerprintChannel(**(channel_params or {}))
    meta = {
        "species": SPECIES_FINGERPRINT,
        "corpus": corpus,
        "n_files": len(files),
        "traces_per_file": traces_per_file,
        "base_seed": seed,
        "channel": {
            "period": channel.period,
            "p_false_negative": channel.p_false_negative,
            "p_false_positive": channel.p_false_positive,
            "speed_jitter": channel.speed_jitter,
        },
        "work_factor": work_factor,
        "max_file_bytes": max_file_bytes,
        **(extra_meta or {}),
    }
    with obs.span(
        "trace.capture.fingerprint",
        trace_id=trace_id,
        corpus=corpus,
        traces_per_file=traces_per_file,
    ):
        with store.create(
            trace_id, SPECIES_FINGERPRINT, meta, overwrite=overwrite
        ) as writer:
            for label, data in enumerate(files):
                timeline = victim_timeline(data, work_factor)
                for i in range(traces_per_file):
                    capture_seed = derive_capture_seed(seed, label, i)
                    writer.append(
                        FingerprintCapture(
                            label=label,
                            capture_seed=capture_seed,
                            trace=capture_raw_trace(
                                timeline, capture_seed, channel
                            ),
                        )
                    )
    assert writer.entry is not None
    obs.counter_add("trace.records", writer.entry.n_records)
    return writer.entry


def capture_oracle_trace(
    store: TraceStore,
    trace_id: str,
    probes: Sequence[OracleProbe],
    victim: str,
    observable: str,
    mitigation: str = "none",
    seed: int = 0,
    overwrite: bool = False,
    extra_meta: Optional[dict] = None,
) -> TraceEntry:
    """Persist one oracle attack's per-guess probe stream.

    Every scored probe of a :class:`~repro.oracle.attacks.BreachAttack`
    or distinguisher run becomes one
    :class:`~repro.traces.format.OracleProbe` record; metadata carries
    the scenario coordinates (victim, observable, mitigation, seed) so
    a stored trace can be re-scored — e.g. by replaying the recovery
    decision procedure over recorded deltas — without a live victim.
    The secret itself is never stored.
    """
    meta = {
        "species": SPECIES_ORACLE,
        "victim": victim,
        "observable": observable,
        "mitigation": mitigation,
        "seed": seed,
        "n_probes": len(probes),
        **(extra_meta or {}),
    }
    with obs.span(
        "trace.capture.oracle",
        trace_id=trace_id,
        victim=victim,
        observable=observable,
    ):
        with store.create(
            trace_id, SPECIES_ORACLE, meta, overwrite=overwrite
        ) as writer:
            writer.extend(probes)
    assert writer.entry is not None
    obs.counter_add("trace.records", writer.entry.n_records)
    return writer.entry


def capture_survey_traces(
    store: TraceStore,
    size: int,
    seed: int,
    targets: Sequence[str] = survey.SURVEY_TARGETS,
    prefix: str = "survey",
    overwrite: bool = False,
) -> list[TraceEntry]:
    """Capture every survey target in one sweep (the SURVEY corpus).

    Trace ids and input seeds follow :mod:`repro.recovery.survey` (bzip2
    uses ``seed + 1``), as the live ``survey_recovery`` experiment does,
    so replayed recovery numbers are comparable 1:1 with it.
    """
    return [
        capture_memory_trace(
            store,
            survey.trace_id(target, size, seed, prefix),
            target,
            size,
            survey.input_seed(target, seed),
            overwrite=overwrite,
            extra_meta={"experiment": "survey", "sweep_seed": seed},
        )
        for target in targets
    ]
