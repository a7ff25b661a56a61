"""Analysis-side replay: stored traces drive the same decoders as live
captures.

The contract throughout is *interchangeability*: every function here
reproduces, bit for bit, what the corresponding live pipeline computes —
:func:`replay_lines` filters a live run's accesses and a stored trace's
records alike (the filters and decoders are
:mod:`repro.recovery.survey`'s), :func:`dataset_from_store` matches
:func:`repro.core.zipchannel.fingerprint.build_dataset` under the same
base seed, and :func:`survey_from_store` returns the same metrics dict
as the live ``survey_recovery`` campaign experiment.  Tests assert the
equalities exactly; the payoff is that analysis jobs never pay the
victim simulation again.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.recovery import survey
from repro.recovery.observe import replay_lines  # noqa: F401  (re-export)
from repro.traces.format import SPECIES_FINGERPRINT, SPECIES_MEMORY
from repro.traces.store import TraceStore


def replay_lines_array(
    columns,
    sites: Optional[Iterable[str]] = None,
    kind: Optional[str] = None,
) -> np.ndarray:
    """Array-native :func:`replay_lines`: same filters, same ``>> 6``
    attacker view, but over :class:`~repro.traces.columns.MemoryColumns`
    so the whole observation stream is one masked shift."""
    return columns.address[columns.mask(sites, kind)] >> 6


def target_lines(
    store: TraceStore,
    trace_id: str,
    target: Optional[str] = None,
) -> np.ndarray:
    """One stored trace's attacker-observed line stream for a survey
    target (defaults to the trace's own ``target`` metadata), decoded
    columnar; equal to :func:`replay_lines` over the stored records
    (``tests/test_traces_replay.py`` pins it)."""
    meta = _require_species(store, trace_id, SPECIES_MEMORY)
    sites, kind = survey.observation_filter(target or meta["target"])
    return replay_lines_array(store.read_columns(trace_id), sites, kind)


def _require_species(store: TraceStore, trace_id: str, species: str) -> dict:
    entry = store.get(trace_id)
    if entry.species != species:
        raise ValueError(
            f"trace {trace_id!r} is a {entry.species!r} trace; "
            f"this replay needs {species!r}"
        )
    return entry.meta


def recover_from_trace(store: TraceStore, trace_id: str) -> dict:
    """Run the matching Section IV recovery on one stored memory trace.

    Dispatches on the trace's ``target`` metadata and returns the same
    metric names the live survey produces for that target.
    """
    from repro.campaign.experiments import make_input

    meta = _require_species(store, trace_id, SPECIES_MEMORY)
    target = meta["target"]
    size = int(meta["size"])
    # The input regenerates from its stored provenance for scoring.
    truth = make_input(meta["input_kind"], size, int(meta["input_seed"]))
    lines = target_lines(store, trace_id, target)
    decoded = survey.decode(target, lines, meta["bases"], size, truth)
    return {"target": target, **decoded.metrics}


def survey_from_store(store: TraceStore, size: int, sweep_seed: int,
                      prefix: str = "survey") -> dict:
    """Assemble the Section IV survey metrics from a captured sweep.

    Reads the three traces :func:`repro.traces.capture.capture_survey_traces`
    wrote for ``(size, sweep_seed)`` and returns the same dict shape as
    the live ``survey_recovery`` experiment.
    """
    out: dict = {}
    for target in survey.SURVEY_TARGETS:
        metrics = recover_from_trace(
            store, survey.trace_id(target, size, sweep_seed, prefix)
        )
        metrics.pop("target")
        out.update(metrics)
    return out


def dataset_from_store(
    store: TraceStore, trace_id: str
) -> tuple[np.ndarray, np.ndarray]:
    """Reassemble the classifier dataset from one stored fingerprint
    trace: ``(X, y)`` exactly as live ``build_dataset`` returns them
    (pooled, flattened, float32, same ordering)."""
    from repro.core.zipchannel.fingerprint import TENSOR_WIDTH, pool_trace

    _require_species(store, trace_id, SPECIES_FINGERPRINT)
    cols = store.read_columns(trace_id)
    pooled = cols.pooled(TENSOR_WIDTH)
    if pooled is not None:
        # Pooling happened in the run domain — no tensor was ever
        # materialised; bit-identical to pool_trace per capture.
        x = pooled.reshape(cols.n, -1).astype(np.float32)
        return x, np.array(cols.labels.tolist())
    xs = [pool_trace(trace).reshape(-1) for trace in cols.traces]
    return np.array(xs, dtype=np.float32), np.array(cols.labels.tolist())


def fingerprint_experiment_from_store(
    store: TraceStore,
    trace_id: str,
    epochs: int = 20,
    seed: int = 0,
    hidden: int = 96,
) -> dict:
    """Train and score the Section VI classifier from stored traces.

    The replay counterpart of
    :func:`repro.core.zipchannel.fingerprint.run_fingerprint_experiment`:
    given the same base seed it consumes an identical dataset, so the
    returned metrics match the live experiment exactly.
    """
    from repro.classify import MLPClassifier, split_dataset

    meta = store.get(trace_id).meta
    x, y = dataset_from_store(store, trace_id)
    n_files = int(meta.get("n_files", len(set(y.tolist()))))
    train, val, test = split_dataset(x, y, seed=seed + 1)
    clf = MLPClassifier(x.shape[1], n_files, hidden=hidden, seed=seed + 2)
    clf.fit(*train, epochs=epochs, x_val=val[0], y_val=val[1])
    return {
        "test_accuracy": float(clf.accuracy(*test)),
        "train_accuracy": float(clf.accuracy(*train)),
        "n_files": n_files,
        "chance": 1.0 / n_files,
        "n_traces": int(x.shape[0]),
    }
