"""Apply a mitigation plan: instantiate patched compressor kernels.

The factories here rebuild each target's compressor with the tables
named in the plan routed through their mitigation wrappers (via the
:class:`~repro.mitigations.registry.MitigationRegistry`), leaving
everything else — framing, match search, entropy coding — untouched.
Because the wrappers preserve table *contents* exactly, a patched
kernel's output is byte-identical to the vulnerable kernel's and
decodes with the stock decompressors (property-tested in
``tests/test_mitigate_pipeline.py``).

Each patched kernel is the vulnerable compressor itself, run over
wrapped tables: LZW through :func:`~repro.compression.lzw.lzw_compress`'s
``wrap_table`` seam, bzip2 through
:func:`~repro.compression.bzip2.blocksort.histogram` over the wrapped
``ftab``.  One LZW-specific twist: covering the full ``1 << 17`` hash
table would cost ~16k line touches per probe, so the patched kernel
reduces the table to ``1 << hash_bits`` slots (default 12) first and
covers *that*.  The emitted code stream is unchanged as long as the
table does not fill (the dictionary content, not the table layout,
determines the output); filling it raises rather than looping forever
on the power-of-two secondary probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exec.context import ExecutionContext, NativeContext
from repro.mitigations.plan import MITIGATION_GUARD, MitigationPlan
from repro.mitigations.registry import MitigationRegistry
from repro.recovery.survey import SURVEY_TARGETS

DEFAULT_HASH_BITS = 12


@dataclass
class MitigatedKernel:
    """A runnable patched compressor plus its provenance.

    ``run(data, ctx)`` executes the patched kernel; after a run,
    ``wrappers`` maps each mitigated site to the wrapper instance that
    served it (the verify layer reads per-access cover counts off these
    to segment the metered line stream).
    """

    target: str
    plan: MitigationPlan
    registry: MitigationRegistry
    run: Callable[[bytes, ExecutionContext], bytes]
    guard_spans: list = field(default_factory=list)
    wrappers: dict = field(default_factory=dict)

    def run_native(self, data: bytes) -> bytes:
        """Run without tracing (output-equality checks, wall-clock)."""
        return self.run(data, NativeContext())


def _zlib_kernel(plan: MitigationPlan, registry: MitigationRegistry) -> MitigatedKernel:
    from repro.compression.lz77 import (
        SITE_FREQ,
        SITE_HEAD,
        SITE_PREV,
        _Deflater,
        deflate_compress,
    )

    guard_spans: list = []
    for sp in plan.sites:
        if sp.mitigation == MITIGATION_GUARD and "secret_spans" in sp.params:
            guard_spans = [tuple(s) for s in sp.params["secret_spans"]]
            break

    kernel = MitigatedKernel(
        target="zlib", plan=plan, registry=registry, run=None,
        guard_spans=guard_spans,
    )

    def deflater(data: bytes, ctx: ExecutionContext) -> _Deflater:
        if guard_spans:
            # Debreach guarding fixes the match finder, not the tree
            # counters: the guarded deflater still gets the plan's
            # table wrappers routed over it below.
            from repro.mitigations.debreach import GuardedDeflater

            d = GuardedDeflater(data, ctx, guard_spans)
        else:
            d = _Deflater(data, ctx)
        for site, attr in (
            (SITE_HEAD, "head"),
            (SITE_PREV, "prev"),
            (SITE_FREQ, "freq"),
        ):
            if site in registry:
                wrapped = registry.wrap(site, getattr(d, attr))
                setattr(d, attr, wrapped)
                kernel.wrappers[site] = wrapped
        return d

    def run(data: bytes, ctx: ExecutionContext) -> bytes:
        kernel.wrappers = {}
        return deflate_compress(data, ctx, deflater)

    kernel.run = run
    return kernel


def _lzw_kernel(
    plan: MitigationPlan,
    registry: MitigationRegistry,
    hash_bits: int = DEFAULT_HASH_BITS,
) -> MitigatedKernel:
    from repro.compression.lzw import SITE_PRIMARY, SITE_SECONDARY, lzw_compress

    kernel = MitigatedKernel(
        target="lzw", plan=plan, registry=registry, run=None
    )

    def wrap_table(site: str, array):
        if site not in registry:
            # With the reduced table, secondary probing is *more*
            # common than in the vulnerable kernel; an unplanned
            # secondary site (absent from the scan at this input size)
            # inherits the primary probe's wrapper rather than running
            # naked.
            if site == SITE_SECONDARY:
                return kernel.wrappers.get(SITE_PRIMARY, array)
            return array
        kernel.wrappers[site] = registry.wrap(site, array)
        return kernel.wrappers[site]

    def run(data: bytes, ctx: ExecutionContext) -> bytes:
        kernel.wrappers = {}
        return lzw_compress(
            data, ctx, hash_bits=hash_bits, wrap_table=wrap_table
        )

    kernel.run = run
    return kernel


def _bzip2_kernel(plan: MitigationPlan, registry: MitigationRegistry) -> MitigatedKernel:
    from repro.compression.bzip2 import bzip2_compress, single_block_size
    from repro.compression.bzip2.blocksort import (
        FTAB_LEN,
        FTAB_MISALIGN,
        SITE_FTAB,
        histogram,
    )

    kernel = MitigatedKernel(
        target="bzip2", plan=plan, registry=registry, run=None
    )

    def mitigated_histogram(ctx, block, nblock, ftab=None, quadrant=None):
        if ftab is None:
            ftab = ctx.array(
                "ftab", FTAB_LEN, elem_size=4, misalign=FTAB_MISALIGN
            )
        wrapped = registry.wrap(SITE_FTAB, ftab)
        if wrapped is not ftab:
            kernel.wrappers[SITE_FTAB] = wrapped
        histogram(ctx, block, nblock, ftab=wrapped, quadrant=quadrant)
        return ftab

    def run(data: bytes, ctx: ExecutionContext) -> bytes:
        kernel.wrappers = {}
        return bzip2_compress(
            data,
            ctx,
            block_size=single_block_size(data),
            histogram_fn=mitigated_histogram,
        )

    kernel.run = run
    return kernel


def build_kernel(
    target: str,
    plan: MitigationPlan,
    hash_bits: int = DEFAULT_HASH_BITS,
) -> MitigatedKernel:
    """Instantiate the patched kernel a plan calls for."""
    registry = MitigationRegistry.from_plan(plan)
    if target == "zlib":
        return _zlib_kernel(plan, registry)
    if target == "lzw":
        return _lzw_kernel(plan, registry, hash_bits=hash_bits)
    if target == "bzip2":
        return _bzip2_kernel(plan, registry)
    raise ValueError(
        f"no kernel factory for target {target!r}; "
        f"choose from {SURVEY_TARGETS}"
    )
