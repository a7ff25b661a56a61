#!/usr/bin/env python3
"""Channel-quality diagnostics end to end: capture, meter, gate.

Captures a survey sweep into a trace store, meters per-gadget leakage
(mutual information + per-bit heatmaps) from the *stored* traces,
checks that a live re-run agrees bit-exactly, probes the physical
channel's health, and finishes with a drift-gate drill: the same
metrics pass against themselves and fail once the cache noise is
bumped.

Run:  python examples/channel_quality.py
"""

import tempfile
from pathlib import Path

from repro import gate
from repro.diag import (
    collect_diag_metrics,
    metric_direction,
    render_channel_health,
    render_survey_leakage,
    survey_leakage,
    survey_leakage_from_store,
)
from repro.diag.channel import channel_health
from repro.diag.drift import ABS_EPSILON, DEFAULT_TOLERANCE
from repro.traces.capture import capture_survey_traces
from repro.traces.store import TraceStore

SIZE = 120
SEED = 7


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="channel_quality_"))
    store = TraceStore(workdir / "survey.trstore")
    print(f"capturing survey traces (size={SIZE}, seed={SEED}) "
          f"into {store.root} ...\n")
    capture_survey_traces(store, size=SIZE, seed=SEED)

    stored = survey_leakage_from_store(store, SIZE, SEED)
    print("# leakage, metered from the stored traces\n")
    print(render_survey_leakage(stored))

    live = survey_leakage(SIZE, SEED)
    agree = all(
        live[t].to_dict() == stored[t].to_dict() for t in stored
    )
    print(f"\nlive re-run agrees bit-exactly with the stored traces: "
          f"{agree}")

    print("\n" + render_channel_health(
        channel_health(samples=800, n_targets=2, step_n=24)
    ))

    print("\n# drift-gate drill\n")
    params = dict(size=60, samples=400, n_targets=2, step_n=16)
    baseline = gate.payload(
        params, collect_diag_metrics(**params), metric_direction
    )

    def drift_gate(metrics):
        return gate.compare(
            metrics, baseline, DEFAULT_TOLERANCE, abs_epsilon=ABS_EPSILON
        )

    clean = drift_gate(collect_diag_metrics(**params))
    print(f"against itself: {clean.summary().splitlines()[-1]}")
    noisy = drift_gate(collect_diag_metrics(noise_sigma=30.0, **params))
    print(f"with noise_sigma bumped to 30: "
          f"{noisy.summary().splitlines()[-1]}")
    for row in noisy.regressions[:4]:
        print(f"  {row.name}: {row.baseline:.4g} -> {row.current:.4g}")


if __name__ == "__main__":
    main()
