"""The bench catalogue: what ``repro perf`` gates.

A bench is a pinned invocation of a registered campaign experiment
(:mod:`repro.campaign.experiments`): fixed params, fixed seed.  The
harness hashes the returned metrics, so any behaviour change under the
same pin is flagged as a correctness regression.  The pins are the
ones committed in ``benchmarks/perf_baseline.json``, each sized to run
in well under a second; speed is measured by ``perfbench/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.experiments import get_experiment


@dataclass(frozen=True)
class PerfBench:
    """One named, pinned workload.

    Args:
        name: stable bench id (keys the JSON reports).
        experiment: registered experiment id to run.
        params: the pinned parameter dict.
        seed: the experiment seed (pinned; metrics must be reproducible).
        note: one line on what the bench exercises.
    """

    name: str
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    note: str = ""

    def run(self) -> dict:
        """Execute the pinned experiment once; returns its metrics."""
        fn = get_experiment(self.experiment)
        return fn(dict(self.params), self.seed)


# The catalogue.  Names are load-bearing: the committed baseline rows
# and the CI gate key on them, so renaming one orphans its baseline.
BENCHES: tuple[PerfBench, ...] = (
    PerfBench(
        name="sec5e_attack",
        experiment="sgx_attack",
        params={"size": 400},
        seed=55,
        note="Section V-E end-to-end SGX extraction (cache + memsys hot path)",
    ),
    PerfBench(
        name="fig7_dataset",
        experiment="fingerprint_dataset",
        params={"corpus": "brotli", "traces": 2, "max_file_bytes": 1200},
        seed=77,
        note="Fig. 7 fingerprint dataset build (native blocksort + capture)",
    ),
    PerfBench(
        name="survey_recovery",
        experiment="survey_recovery",
        params={"size": 200},
        seed=11,
        note="Section IV three-compressor recovery survey (tracing substrate)",
    ),
    PerfBench(
        name="taintchannel_zlib",
        experiment="taintchannel_scan",
        params={"target": "zlib", "size": 250, "input_kind": "lowercase"},
        seed=3,
        note="TaintChannel gadget scan of deflate (taint algebra hot path)",
    ),
    PerfBench(
        name="taintchannel_lzw",
        experiment="taintchannel_scan",
        params={"target": "lzw", "size": 200},
        seed=3,
        note="TaintChannel gadget scan of LZW (taint algebra hot path)",
    ),
    PerfBench(
        name="mitigate_lzw",
        experiment="mitigation_synthesis",
        params={"target": "lzw", "size": 80},
        seed=7,
        note="mitigation synthesis loop: scan, plan, apply, re-meter (LZW)",
    ),
    PerfBench(
        name="lzw_recovery",
        experiment="lzw_recovery",
        params={"size": 150, "noise": 0.02},
        seed=9,
        note="noisy-channel LZW recovery (tracing + recovery search)",
    ),
    PerfBench(
        name="survey_replay",
        experiment="survey_replay",
        params={"size": 300},
        seed=11,
        note="Section IV survey line streams from store (columnar decode)",
    ),
    PerfBench(
        name="fig7_replay",
        experiment="fig7_replay",
        params={"corpus": "brotli", "traces": 2, "max_file_bytes": 1200},
        seed=77,
        note="Fig. 7 dataset from stored fingerprints (run-domain pooling)",
    ),
    PerfBench(
        name="access_many_probe",
        experiment="probe_sweep",
        params={"rounds": 60, "locations": 96, "noise_rate": 64},
        seed=21,
        note="Prime+Probe rounds under noise (batched access_many paths)",
    ),
)

_BY_NAME = {bench.name: bench for bench in BENCHES}


def available_benches() -> list[str]:
    """Names of all catalogued benches, in catalogue order."""
    return [bench.name for bench in BENCHES]


def get_bench(name: str) -> PerfBench:
    """Look up a bench; KeyError lists what exists."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown bench {name!r}; available: {available_benches()}"
        ) from None
