#!/usr/bin/env python3
"""Channel-quality diagnostics end to end: capture, meter, gate.

Captures a survey sweep into a trace store, meters per-gadget leakage
(mutual information + per-bit heatmaps) from the *stored* traces,
checks that a live re-run agrees bit-exactly, probes the physical
channel's health, and finishes with the claims gate's noise drill: the
``CHANNEL`` claim passes against its committed baseline rows and fails
once the cache noise is bumped.

Run:  python examples/channel_quality.py
"""

import tempfile
from pathlib import Path

from repro import gate
from repro.diag import (
    render_channel_health,
    render_survey_leakage,
    survey_leakage,
    survey_leakage_from_store,
)
from repro.diag.channel import channel_health
from repro.diag.claims import ABS_EPSILON, DEFAULT_TOLERANCE, channel, claim_rows
from repro.traces.capture import capture_survey_traces
from repro.traces.store import TraceStore

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "claims_baseline.json"
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

    print("\n# claims-gate noise drill: the CHANNEL claim\n")
    committed = gate.load(str(BASELINE), "claims baseline")
    rows = {
        k: v for k, v in committed["metrics"].items()
        if k.startswith("claim.CHANNEL.")
    }
    baseline = {**committed, "metrics": rows}

    def channel_gate(noise_sigma=None):
        return gate.compare(
            claim_rows("CHANNEL", channel(noise_sigma)),
            baseline, DEFAULT_TOLERANCE, abs_epsilon=ABS_EPSILON,
        )

    clean = channel_gate()
    print(f"committed noise: {clean.summary().splitlines()[-1]}")
    noisy = channel_gate(noise_sigma=30.0)
    print(f"with noise_sigma bumped to 30: "
          f"{noisy.summary().splitlines()[-1]}")
    for row in noisy.regressions[:4]:
        print(f"  {row.name}: {row.baseline:.4g} -> {row.current:.4g}")


if __name__ == "__main__":
    main()
