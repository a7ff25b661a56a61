"""Apply a mitigation plan: instantiate patched compressor kernels.

The factories here rebuild each target's compressor with the tables
named in the plan routed through their mitigation wrappers (via the
:class:`~repro.mitigations.registry.MitigationRegistry`), leaving
everything else — framing, match search, entropy coding — untouched.
Because the wrappers preserve table *contents* exactly, a patched
kernel's output is byte-identical to the vulnerable kernel's and
decodes with the stock decompressors (property-tested in
``tests/test_mitigate_pipeline.py``).

One LZW-specific twist, borrowed from
:func:`~repro.mitigations.oblivious.oblivious_lzw_compress`: covering
the full ``1 << 17`` hash table would cost ~16k line touches per probe,
so the patched kernel reduces the table to ``1 << hash_bits`` slots
(default 12) first and covers *that*.  The emitted code stream is
unchanged as long as the table does not fill (the dictionary content,
not the table layout, determines the output); filling it raises rather
than looping forever on the power-of-two secondary probe.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exec.context import ExecutionContext, NativeContext
from repro.mitigations.plan import MITIGATION_GUARD, MitigationPlan
from repro.mitigations.registry import MitigationRegistry
from repro.recovery.survey import SURVEY_TARGETS
from repro.taint.value import value_of

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


def _cover_count(wrapper) -> int:
    count = getattr(wrapper, "cover_count", None)
    if count is not None:
        return count
    # ObliviousSiteTable: one touch per line of the backing array.
    return len(wrapper._line_starts)


def _zlib_kernel(plan: MitigationPlan, registry: MitigationRegistry) -> MitigatedKernel:
    from repro.compression.lz77 import (
        MAGIC,
        SITE_FREQ,
        SITE_HEAD,
        SITE_PREV,
        _Deflater,
        _run_deflater,
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

    def run(data: bytes, ctx: ExecutionContext) -> bytes:
        header = MAGIC + struct.pack("<I", len(data))
        if not data:
            kernel.wrappers = {}
            return header
        with ctx.func("deflate_slow"):
            if guard_spans:
                # Debreach guarding fixes the match finder, not the
                # tree counters: the guarded deflater still gets the
                # plan's table wrappers routed over it below.
                from repro.mitigations.debreach import GuardedDeflater

                d = GuardedDeflater(data, ctx, guard_spans)
            else:
                d = _Deflater(data, ctx)
            wrappers = {}
            for site, attr in (
                (SITE_HEAD, "head"),
                (SITE_PREV, "prev"),
                (SITE_FREQ, "freq"),
            ):
                if site in registry:
                    wrapped = registry.wrap(site, getattr(d, attr))
                    setattr(d, attr, wrapped)
                    wrappers[site] = wrapped
            kernel.wrappers = wrappers
            body = _run_deflater(d, ctx)
        return header + body

    kernel.run = run
    return kernel


def _lzw_kernel(
    plan: MitigationPlan,
    registry: MitigationRegistry,
    hash_bits: int = DEFAULT_HASH_BITS,
) -> MitigatedKernel:
    from repro.compression.bitio import LSBBitWriter
    from repro.compression.lzw import (
        FIRST_FREE,
        HSHIFT,
        INIT_BITS,
        MAGIC,
        MAX_BITS,
        MAX_MAX_CODE,
        SITE_CODETAB,
        SITE_PRIMARY,
        SITE_SECONDARY,
        _maxcode,
    )

    kernel = MitigatedKernel(
        target="lzw", plan=plan, registry=registry, run=None
    )
    hsize = 1 << hash_bits

    def run(data: bytes, ctx: ExecutionContext) -> bytes:
        out = LSBBitWriter()
        with ctx.func("compress"):
            htab = ctx.array("htab", hsize, elem_size=8, init=-1)
            codetab = ctx.array("codetab", hsize, elem_size=2, init=0)
            wrappers = {}
            ht_primary = htab
            if SITE_PRIMARY in registry:
                ht_primary = registry.wrap(SITE_PRIMARY, htab)
                wrappers[SITE_PRIMARY] = ht_primary
            # With the reduced table, secondary probing is *more* common
            # than in the vulnerable kernel; an unplanned secondary site
            # (absent from the scan at this input size) inherits the
            # primary probe's wrapper rather than running naked.
            if SITE_SECONDARY in registry:
                ht_secondary = registry.wrap(SITE_SECONDARY, htab)
                wrappers[SITE_SECONDARY] = ht_secondary
            else:
                ht_secondary = ht_primary
            ct = codetab
            if SITE_CODETAB in registry:
                ct = registry.wrap(SITE_CODETAB, codetab)
                wrappers[SITE_CODETAB] = ct
            kernel.wrappers = wrappers
            inp = ctx.input_bytes(data)

            if not data:
                return MAGIC + bytes([MAX_BITS])

            n_bits = INIT_BITS
            maxcode = _maxcode(n_bits)
            free_ent = FIRST_FREE

            ent = inp[0]
            for pos in range(1, len(data)):
                ctx.tick(4)
                c = inp[pos]
                fc = (ent << 8) | c
                hp = ((c << HSHIFT) ^ ent) % hsize

                found = False
                slot = ht_primary.get(hp, site=SITE_PRIMARY)
                if slot == fc:
                    found = True
                elif not (slot < 0):
                    disp = hsize - (value_of(hp) | 1)
                    probes = 0
                    while True:
                        ctx.tick(2)
                        hp = (hp + (hsize - disp)) % hsize
                        slot = ht_secondary.get(hp, site=SITE_SECONDARY)
                        probes += 1
                        if slot == fc:
                            found = True
                            break
                        if slot < 0:
                            break
                        if probes > hsize:
                            raise RuntimeError(
                                f"mitigated LZW hash table full "
                                f"({hsize} slots); raise hash_bits"
                            )

                if found:
                    ent = ct.get(hp, site=SITE_CODETAB)
                    continue

                out.write(ent, n_bits)
                if free_ent < MAX_MAX_CODE:
                    ct.set(hp, free_ent, site=SITE_CODETAB)
                    ht_primary.set(hp, fc, site=SITE_PRIMARY)
                    free_ent += 1
                    if free_ent > maxcode and n_bits < MAX_BITS:
                        n_bits += 1
                        maxcode = _maxcode(n_bits)
                ent = c

            out.write(ent, n_bits)

        return MAGIC + bytes([MAX_BITS]) + out.getvalue()

    kernel.run = run
    return kernel


def _bzip2_kernel(plan: MitigationPlan, registry: MitigationRegistry) -> MitigatedKernel:
    from repro.compression.bzip2 import bzip2_compress
    from repro.compression.bzip2.blocksort import (
        FTAB_LEN,
        FTAB_MISALIGN,
        SITE_BLOCK,
        SITE_FTAB,
        SITE_QUADRANT,
    )

    kernel = MitigatedKernel(
        target="bzip2", plan=plan, registry=registry, run=None
    )

    def mitigated_histogram(ctx, block, nblock, ftab=None, quadrant=None):
        if ftab is None:
            ftab = ctx.array(
                "ftab", FTAB_LEN, elem_size=4, misalign=FTAB_MISALIGN
            )
        if quadrant is None:
            quadrant = ctx.array("quadrant", max(nblock, 1), elem_size=2)
        ftab.fill(0)
        wrapped = registry.wrap(SITE_FTAB, ftab)
        if wrapped is not ftab:
            kernel.wrappers[SITE_FTAB] = wrapped

        j = block.get(0, site=SITE_BLOCK) << 8
        for i in range(nblock - 1, -1, -1):
            ctx.tick(3)
            quadrant.set(i, 0, site=SITE_QUADRANT)
            j = (j >> 8) | ((block.get(i, site=SITE_BLOCK) & 0xFF) << 8)
            wrapped.add(j, 1, site=SITE_FTAB)
        return ftab

    def run(data: bytes, ctx: ExecutionContext) -> bytes:
        kernel.wrappers = {}
        return bzip2_compress(
            data,
            ctx,
            block_size=len(data),
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
