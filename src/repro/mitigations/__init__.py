"""Mitigations against compression side-channels (Section VIII + BREACH).

Two families:

**Oblivious access** (the paper's constant-time discussion) — make the
cache-*address* trace input-independent:

* :class:`ObliviousTable` — a table wrapper whose reads/writes stream
  over all lines (ORAM-free linear scanning, the classic constant-time
  lookup).  The defended victims are the vulnerable loops themselves
  over wrapped tables: the Listing 3 histogram over an oblivious
  ``ftab`` (``run_attack(..., mitigated=True)``) and, per a synthesised
  plan, :func:`build_kernel`'s zlib/LZW/bzip2 kernels.
* :class:`MaskedTable` / :class:`PreloadedTable` — cheaper covers the
  planner picks when few index bits carry taint or a site only reads.

**Oracle shaping** (the BREACH / memory-compression channel of
:mod:`repro.oracle`) — make the compressed *size* / *wall-time*
observable useless:

* :mod:`repro.mitigations.padding` — gzhttp-style random padding, size
  quantization, and latency jitter applied to the sealed observable;
* :mod:`repro.mitigations.debreach` — Debreach-style taint-guarded
  deflate that excludes secret spans from LZ77 match search, so
  attacker input can never compress against the secret.

All of them are deliberately honest about cost: the campaign sweeps
measure recovery-rate-vs-overhead curves, which is why such mitigations
are rarely deployed — the paper's point.
"""

from repro.mitigations.apply import MitigatedKernel, build_kernel
from repro.mitigations.masking import MaskedTable
from repro.mitigations.oblivious import ObliviousTable
from repro.mitigations.plan import (
    MITIGATION_KINDS,
    MitigationPlan,
    SitePlan,
    build_plan,
)
from repro.mitigations.preload import PreloadedTable
from repro.mitigations.registry import MitigationRegistry, make_wrapper
from repro.mitigations.verify import MitigationReport, verify_mitigation
from repro.mitigations.padding import (
    LatencyJitter,
    ORACLE_MITIGATIONS,
    OracleMitigation,
    RandomPadding,
    SizeQuantization,
    get_oracle_mitigation,
)
from repro.mitigations.debreach import (
    GuardedDeflater,
    guarded_deflate_compress,
    guarded_gzip_compress,
)

__all__ = [
    "MITIGATION_KINDS",
    "MaskedTable",
    "MitigatedKernel",
    "MitigationPlan",
    "MitigationRegistry",
    "MitigationReport",
    "PreloadedTable",
    "SitePlan",
    "build_kernel",
    "build_plan",
    "make_wrapper",
    "verify_mitigation",
    "ObliviousTable",
    "LatencyJitter",
    "ORACLE_MITIGATIONS",
    "OracleMitigation",
    "RandomPadding",
    "SizeQuantization",
    "get_oracle_mitigation",
    "GuardedDeflater",
    "guarded_deflate_compress",
    "guarded_gzip_compress",
]
