"""Profilers of the hot paths (:mod:`repro.perf.harness`).

``repro perf profile`` cProfiles one pinned bench — the benches are the
``DIGEST`` pins of :mod:`repro.diag.claims`, whose metrics digests the
claims gate (``repro diag compare``) holds ``equal`` — or any raw
experiment id, or counts one analysis target's accesses per site.
Speed is measured by ``perfbench/`` (the workloads ``BENCHMARK.json``
declares), not here.  CLI::

    python -m repro perf profile sec5e_attack
    python -m repro perf profile --experiment lzw_recovery --params '{"size": 150}'
    python -m repro perf profile --sites lzw --size 500
"""

from repro.perf.harness import (
    profile_bench,
    render_site_profile,
    site_access_profile,
)

__all__ = [
    "profile_bench",
    "render_site_profile",
    "site_access_profile",
]
