"""Execution contexts: native, profiled, and taint-traced.

See :mod:`repro.exec` for the overall picture.  The key design point is
that an :class:`ExecutionContext` is the *only* dependency a compression
kernel has, so the same kernel code is the victim under TaintChannel, the
victim inside the simulated SGX enclave, and the reference implementation
for round-trip correctness tests.
"""

from __future__ import annotations

import contextlib
import enum
from abc import ABC, abstractmethod
from typing import Iterator, Optional, Sequence

from repro import obs
from repro.exec.arrays import AccessHook, HookedArray, TArray, TracingArray
from repro.exec.events import FunctionEvent, MemoryAccess, TraceLimitExceeded
from repro.taint.bittaint import BitTaint
from repro.taint.tags import TagRegistry
from repro.taint.value import (
    CompareRecord,
    InputRecord,
    OpRecord,
    Origin,
    TaintedInt,
    taint_of,
    value_of,
)

# Arrays are laid out by a bump allocator starting well above null, with a
# guard gap between arrays so address arithmetic bugs fault loudly in
# tests rather than silently aliasing.
_HEAP_BASE = 0x7F00_0000_0000
_GUARD_GAP = 0x1000


class Profiler:
    """Virtual-time profiler: records function enter/exit intervals.

    The fingerprinting attack (Section VI) needs to know *when* the victim
    was executing ``mainSort`` vs ``fallbackSort``.  Kernels advance
    virtual time with ``ctx.tick(cost)``; the profiler turns the
    enter/exit bracketing into per-function intervals that the simulated
    Flush+Reload channel later samples.
    """

    def __init__(self) -> None:
        self.now = 0
        self.events: list[FunctionEvent] = []
        self._seq = 0

    def tick(self, cost: int) -> None:
        self.now += cost

    def mark(self, name: str, kind: str) -> None:
        self._seq += 1
        self.events.append(FunctionEvent(self._seq, name, kind, self.now))

    def intervals(self, name: str) -> list[tuple[int, int]]:
        """(start, end) virtual-time intervals during which ``name`` was
        on the call stack."""
        out: list[tuple[int, int]] = []
        stack: list[int] = []
        for ev in self.events:
            if ev.name != name:
                continue
            if ev.kind == "enter":
                stack.append(ev.time)
            elif stack:
                out.append((stack.pop(), ev.time))
        for start in stack:  # never exited: open until end of run
            out.append((start, self.now))
        return out

    def chrome_trace_events(self, pid: int = 0) -> list[dict]:
        """This profiler's enter/exit events as Chrome Trace Event
        ``B``/``E`` pairs on the virtual clock, ready for
        ``chrome://tracing`` / Perfetto (see :mod:`repro.obs.export`)."""
        from repro.obs.export import profiler_chrome_events

        return profiler_chrome_events(self, pid=pid)


class ExecutionContext(ABC):
    """The substrate API compression kernels are written against."""

    @abstractmethod
    def input_bytes(self, data: bytes, source: str = "input") -> list:
        """Mark ``data`` as (possibly tainted) program input and return
        its bytes as context-appropriate values."""

    @abstractmethod
    def array(
        self,
        name: str,
        length: int,
        elem_size: int = 1,
        init: int = 0,
        align: int = 64,
        misalign: int = 0,
    ) -> TArray:
        """Allocate a named array.  ``align`` is the base alignment in
        bytes; ``misalign`` adds a deliberate offset (the paper's ftab is
        *not* cache-line aligned, which causes the off-by-one ambiguity
        of Section IV-D)."""

    def tick(self, cost: int = 1) -> None:
        """Advance virtual time (no-op unless a profiler is attached)."""

    @contextlib.contextmanager
    def func(self, name: str) -> Iterator[None]:
        """Bracket a function body for profiling / control-flow traces."""
        self.on_func(name, "enter")
        try:
            yield
        finally:
            self.on_func(name, "exit")

    def on_func(self, name: str, kind: str) -> None:
        """Hook for subclasses; default ignores function markers."""


class NativeContext(ExecutionContext):
    """Fast un-instrumented execution (plain ints, plain arrays).

    Optionally carries a :class:`Profiler` so the fingerprinting attack
    can extract the mainSort/fallbackSort timeline from a fast run, and
    an access ``hook(address, kind, site)`` that every array reports
    each element access to (:class:`~repro.exec.arrays.HookedArray`) —
    how the Section IV observer watches the gadget sites of an untraced
    run.
    """

    def __init__(
        self,
        profiler: Optional[Profiler] = None,
        hook: Optional[AccessHook] = None,
    ) -> None:
        self.profiler = profiler
        self.hook = hook
        self._next_base = _HEAP_BASE
        self.arrays: dict[str, TArray] = {}
        if profiler is not None:
            # Shadow the method with the profiler's bound tick: kernels
            # call ctx.tick once per simulated instruction burst, so the
            # extra delegation frame is worth skipping.
            self.tick = profiler.tick

    def input_bytes(self, data: bytes, source: str = "input") -> list[int]:
        return list(data)

    def array(
        self,
        name: str,
        length: int,
        elem_size: int = 1,
        init: int = 0,
        align: int = 64,
        misalign: int = 0,
    ) -> TArray:
        base = self._allocate(length * elem_size, align, misalign)
        if self.hook is None:
            arr = TArray(name, length, elem_size, base, init)
        else:
            arr = HookedArray(self.hook, name, length, elem_size, base, init)
        self.arrays[name] = arr
        return arr

    def _allocate(self, size: int, align: int, misalign: int) -> int:
        base = -(-self._next_base // align) * align + misalign
        self._next_base = base + size + _GUARD_GAP
        return base

    def tick(self, cost: int = 1) -> None:
        if self.profiler is not None:
            self.profiler.tick(cost)

    def on_func(self, name: str, kind: str) -> None:
        if self.profiler is not None:
            self.profiler.mark(name, kind)


class InstrumentationTier(enum.Enum):
    """How much a :class:`TracingContext` records.

    Consumers that only look at the memory-access stream (the recovery
    survey, ZTRC capture, the SGX attack's gadget observations) pay for
    the full data-flow DAG under ``FULL`` without ever reading it; the
    lower tier skips that work.

    * ``FULL`` — everything: op records, compare records, memory
      accesses, input records, function markers.  TaintChannel's tier.
    * ``ADDRESS_ONLY`` — memory accesses (with their taint), input
      records and function markers, but no :class:`OpRecord` /
      :class:`CompareRecord` construction.  Sequence numbers are still
      consumed for the skipped records, so the access stream — and a
      ZTRC file captured from it — is *byte-identical* to a FULL run's.
    """

    FULL = "full"
    ADDRESS_ONLY = "address_only"


class TracingContext(ExecutionContext):
    """TaintChannel's execution substrate.

    Input bytes become :class:`TaintedInt` values with one fresh tag per
    byte; all tainted operations, comparisons, function markers, and
    taint-relevant memory accesses are appended to :attr:`events` in
    program order.

    Args:
        carry_aware_add: propagate addition taint conservatively through
            carries instead of positionally (see
            :meth:`repro.taint.bittaint.BitTaint.carry_extended`).
        max_events: hard cap on recorded events; exceeded -> raise
            :class:`TraceLimitExceeded` (runaway-loop protection, needed
            because compression has input-dependent unbounded loops).
        tier: how much to record (see :class:`InstrumentationTier`).
    """

    def __init__(
        self,
        carry_aware_add: bool = False,
        max_events: int = 2_000_000,
        record_untainted_accesses: bool = False,
        tier: InstrumentationTier = InstrumentationTier.FULL,
    ) -> None:
        self.tags = TagRegistry()
        self.events: list[Origin] = []
        self.carry_aware_add = carry_aware_add
        self.max_events = max_events
        # Trace-correlation comparators need the *full* address trace,
        # not just the tainted slice TaintChannel keeps.
        self.record_untainted_accesses = record_untainted_accesses
        self.tier = tier
        # Flags the hot paths (TaintedInt._emit, record_access) read
        # instead of comparing enum members.
        self.record_ops = tier is InstrumentationTier.FULL
        self.plain_accesses = 0
        self._seq = 0
        self._next_base = _HEAP_BASE
        self.arrays: dict[str, TArray] = {}

    # -- TaintRecorder protocol ----------------------------------------
    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _append(self, event: Origin) -> None:
        if len(self.events) >= self.max_events:
            obs.log(
                "warning",
                "trace limit exceeded",
                max_events=self.max_events,
                seq=self._seq,
            )
            raise TraceLimitExceeded(
                f"trace exceeded {self.max_events} events"
            )
        self.events.append(event)

    def record_op(self, record: OpRecord) -> None:
        self._append(record)

    def record_compare(self, record: CompareRecord) -> None:
        self._append(record)

    def record_access(
        self,
        kind: str,
        array: TArray,
        index,
        addr_taint: BitTaint,
        value_taint: BitTaint,
        site: str,
    ) -> None:
        i = value_of(index)
        self._append(
            MemoryAccess(
                seq=self.next_seq(),
                kind=kind,
                array=array.name,
                index=i,
                elem_size=array.elem_size,
                address=array.address_of(i),
                addr_taint=addr_taint,
                addr_origin=index.origin if isinstance(index, TaintedInt) else None,
                value_taint=value_taint,
                site=site,
            )
        )

    # -- ExecutionContext API ------------------------------------------
    def input_bytes(self, data: bytes, source: str = "input") -> list:
        out: list[TaintedInt] = []
        for i, b in enumerate(data):
            tag = self.tags.new_tag(source, i)
            record = InputRecord(
                seq=self.next_seq(), source=source, index=i, value=b, tag=tag
            )
            self._append(record)
            out.append(
                TaintedInt(b, 64, BitTaint.byte(tag), record, self)
            )
        return out

    def array(
        self,
        name: str,
        length: int,
        elem_size: int = 1,
        init: int = 0,
        align: int = 64,
        misalign: int = 0,
    ) -> TracingArray:
        base = self._allocate(length * elem_size, align, misalign)
        arr = TracingArray(self, name, length, elem_size, base, init)
        self.arrays[name] = arr
        return arr

    def _allocate(self, size: int, align: int, misalign: int) -> int:
        base = -(-self._next_base // align) * align + misalign
        self._next_base = base + size + _GUARD_GAP
        return base

    def on_func(self, name: str, kind: str) -> None:
        self._append(
            FunctionEvent(seq=self.next_seq(), name=name, kind=kind, time=0)
        )

    # -- convenience ---------------------------------------------------
    def publish_stats(self, prefix: str = "exec") -> None:
        """Publish this trace's instruction/memory-access counts as obs
        counters (no-op while observability is disabled).  Called by the
        consumers that retire a context — TaintChannel analysis, trace
        capture — not per event, so the recording hot path stays
        untouched."""
        if not obs.enabled():
            return
        n_accesses = sum(
            1 for e in self.events if isinstance(e, MemoryAccess)
        )
        obs.counter_add("exec.trace_events", len(self.events))
        obs.counter_add("exec.memory_accesses", n_accesses)
        obs.counter_add("exec.plain_accesses", self.plain_accesses)
        obs.counter_add("exec.seq_consumed", self._seq)

    def constant(self, value: int, width: int = 64) -> TaintedInt:
        """An untainted value that still participates in trace recording
        when combined with tainted ones."""
        return TaintedInt(value, width, BitTaint.empty(), None, self)

    def memory_accesses(self) -> list[MemoryAccess]:
        return [e for e in self.events if isinstance(e, MemoryAccess)]

    def tainted_accesses(self) -> list[MemoryAccess]:
        """Accesses whose *address* carries taint: gadget candidates."""
        return [
            e
            for e in self.events
            if isinstance(e, MemoryAccess) and e.addr_taint
        ]

    def compares(self) -> list[CompareRecord]:
        return [e for e in self.events if isinstance(e, CompareRecord)]

    def function_events(self) -> list[FunctionEvent]:
        return [e for e in self.events if isinstance(e, FunctionEvent)]
