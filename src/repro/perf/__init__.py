"""Behaviour regression gate over the experiment registry.

A speedup that changes what an experiment computes is a bug.  This
package pins the behaviour of the hot paths the way
:mod:`repro.campaign` pins experiment metrics:

* :mod:`repro.perf.benches` — the bench catalogue: a named, pinned
  (experiment, params, seed) triple per bench, sized for CI.
* :mod:`repro.perf.harness` — runs each bench once and hashes its
  metrics into a :mod:`repro.gate` payload of ``equal`` digest rows,
  and gates two payloads through :func:`repro.gate.compare` after the
  perf-only pin check; also the cProfile and per-site profilers.

Speed is measured by ``perfbench/`` (reference-loop normalised, the
workloads ``BENCHMARK.json`` declares), not here.  The one committed
baseline is ``benchmarks/perf_baseline.json``.  CLI::

    python -m repro perf run --out perf_quick.json
    python -m repro perf compare perf_quick.json \
        --baseline benchmarks/perf_baseline.json
    python -m repro perf run --out benchmarks/perf_baseline.json
    python -m repro perf profile sec5e_attack
"""

from repro.perf.benches import PerfBench, available_benches, get_bench
from repro.perf.harness import (
    compare_benches,
    metrics_digest,
    profile_bench,
    render_site_profile,
    run_benches,
    site_access_profile,
)

__all__ = [
    "PerfBench",
    "available_benches",
    "get_bench",
    "compare_benches",
    "metrics_digest",
    "profile_bench",
    "render_site_profile",
    "run_benches",
    "site_access_profile",
]
