"""Execution contexts for instrumented compression kernels.

The compression kernels in :mod:`repro.compression` (and the AES validation
workload) are written once against the small :class:`ExecutionContext` API
— arrays come from ``ctx.array(...)``, input bytes from
``ctx.input_bytes(...)``, functions are bracketed with ``ctx.func(...)`` —
and can then be run on three different substrates:

* :class:`NativeContext` — plain Python values, no taint, fastest; also
  hosts the virtual-time profiler used by the fingerprinting attack and
  the access hook the Section IV observer watches gadget sites with
  (:class:`HookedArray`, also the enclave's array).
* :class:`TracingContext` — TaintChannel's substrate: every input byte is
  tagged, every tainted operation and every memory access with a tainted
  address is recorded.  This plays the role DynamoRIO plays in the paper.
* ``MemsysContext`` (in :mod:`repro.sgx`) — the SGX-attack substrate, where
  array accesses go through simulated page tables and a cache model.
"""

from repro.exec.events import (
    FunctionEvent,
    MemoryAccess,
    TraceLimitExceeded,
)
from repro.exec.arrays import HookedArray, TArray
from repro.exec.context import (
    ExecutionContext,
    InstrumentationTier,
    NativeContext,
    Profiler,
    TracingContext,
)

__all__ = [
    "ExecutionContext",
    "InstrumentationTier",
    "NativeContext",
    "TracingContext",
    "Profiler",
    "TArray",
    "HookedArray",
    "MemoryAccess",
    "FunctionEvent",
    "TraceLimitExceeded",
]
