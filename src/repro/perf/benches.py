"""The bench catalogue: what ``repro perf`` times.

A bench is a pinned invocation of a registered campaign experiment
(:mod:`repro.campaign.experiments`): fixed params, fixed seed.  Pinning
matters twice over — wall times are only comparable across commits when
the workload is identical, and the harness hashes the returned metrics
so any behaviour change under the same pin is flagged as a correctness
regression, not silently timed.

Every bench carries a ``quick_params`` variant sized for CI (a few
seconds total for the whole quick suite) next to the full variant; the
quick pins are the ones committed in ``benchmarks/perf_baseline.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.experiments import get_experiment


@dataclass(frozen=True)
class PerfBench:
    """One named, pinned perf workload.

    Args:
        name: stable bench id (keys the JSON reports).
        experiment: registered experiment id to run.
        params: full-mode parameter dict.
        quick_params: overrides applied on top of ``params`` in quick
            mode (CI smoke).
        seed: the experiment seed (pinned; metrics must be reproducible).
        repeats: full-mode timing repetitions (min is reported).
        quick_repeats: quick-mode repetitions.
        note: one line on what the bench exercises.
    """

    name: str
    experiment: str
    params: dict = field(default_factory=dict)
    quick_params: dict = field(default_factory=dict)
    seed: int = 0
    repeats: int = 1
    quick_repeats: int = 1
    note: str = ""

    def resolved_params(self, quick: bool) -> dict:
        merged = dict(self.params)
        if quick:
            merged.update(self.quick_params)
        return merged

    def run(self, quick: bool = False) -> dict:
        """Execute the pinned experiment once; returns its metrics."""
        fn = get_experiment(self.experiment)
        return fn(self.resolved_params(quick), self.seed)


# The catalogue.  Names are load-bearing: the committed baseline rows
# and the CI gate key on them, so renaming one orphans its baseline.
BENCHES: tuple[PerfBench, ...] = (
    PerfBench(
        name="sec5e_attack",
        experiment="sgx_attack",
        params={"size": 4000},
        quick_params={"size": 400},
        seed=55,
        note="Section V-E end-to-end SGX extraction (cache + memsys hot path)",
    ),
    PerfBench(
        name="fig7_dataset",
        experiment="fingerprint_dataset",
        params={"corpus": "brotli", "traces": 10},
        quick_params={"traces": 2, "max_file_bytes": 1200},
        seed=77,
        note="Fig. 7 fingerprint dataset build (native blocksort + capture)",
    ),
    PerfBench(
        name="survey_recovery",
        experiment="survey_recovery",
        params={"size": 600},
        quick_params={"size": 200},
        seed=11,
        note="Section IV three-compressor recovery survey (tracing substrate)",
    ),
    PerfBench(
        name="taintchannel_zlib",
        experiment="taintchannel_scan",
        params={"target": "zlib", "size": 600, "input_kind": "lowercase"},
        quick_params={"size": 250},
        seed=3,
        repeats=2,
        note="TaintChannel gadget scan of deflate (taint algebra hot path)",
    ),
    PerfBench(
        name="taintchannel_lzw",
        experiment="taintchannel_scan",
        params={"target": "lzw", "size": 500},
        quick_params={"size": 200},
        seed=3,
        repeats=2,
        note="TaintChannel gadget scan of LZW (taint algebra hot path)",
    ),
    PerfBench(
        name="mitigate_lzw",
        experiment="mitigation_synthesis",
        params={"target": "lzw", "size": 150},
        quick_params={"size": 80},
        seed=7,
        note="mitigation synthesis loop: scan, plan, apply, re-meter (LZW)",
    ),
    PerfBench(
        name="lzw_recovery",
        experiment="lzw_recovery",
        params={"size": 400, "noise": 0.02},
        quick_params={"size": 150},
        seed=9,
        repeats=2,
        note="noisy-channel LZW recovery (tracing + recovery search)",
    ),
    # The capture happens once per process (see
    # experiments._bench_store); repeats > 1 so the min discards the
    # capture-bearing first run.
    PerfBench(
        name="survey_replay",
        experiment="survey_replay",
        params={"size": 2000},
        quick_params={"size": 300},
        seed=11,
        repeats=3,
        quick_repeats=2,
        note="Section IV survey line streams from store (columnar decode)",
    ),
    PerfBench(
        name="fig7_replay",
        experiment="fig7_replay",
        params={"corpus": "brotli", "traces": 10},
        quick_params={"traces": 2, "max_file_bytes": 1200},
        seed=77,
        repeats=3,
        quick_repeats=2,
        note="Fig. 7 dataset from stored fingerprints (run-domain pooling)",
    ),
    PerfBench(
        name="access_many_probe",
        experiment="probe_sweep",
        params={"rounds": 200, "locations": 256, "noise_rate": 64},
        quick_params={"rounds": 60, "locations": 96},
        seed=21,
        repeats=2,
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
