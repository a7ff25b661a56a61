"""Performance regression harness over the experiment registry.

The ROADMAP's north star is "as fast as the hardware allows", but a
speed claim without a recorded number is folklore.  This package makes
wall time a tracked artifact, the way :mod:`repro.campaign` made
experiment metrics one:

* :mod:`repro.perf.benches` — the bench catalogue: a named, pinned
  (experiment, params, seed) triple per bench, each with a ``--quick``
  variant small enough for CI.
* :mod:`repro.perf.harness` — runs benches under ``time.perf_counter``
  and hashes their metrics (so a speedup that changes results is caught
  as loudly as a slowdown) into a :mod:`repro.gate` payload, and gates
  two payloads through :func:`repro.gate.compare` after the perf-only
  pin check and machine normalisation.

The one committed baseline is ``benchmarks/perf_baseline.json`` (quick
pins).  CLI::

    python -m repro perf run --quick --out perf_quick.json
    python -m repro perf compare perf_quick.json \
        --baseline benchmarks/perf_baseline.json --tolerance 0.2
    python -m repro perf run --quick --out benchmarks/perf_baseline.json
    python -m repro perf profile sec5e_attack --quick
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
