"""Verify an applied mitigation plan: leakage before/after, and the bill.

``verify_mitigation`` closes the loop the planner opened:

1. **Before** — scan the vulnerable kernel with TaintChannel, build the
   plan, and meter the primary gadget's leakage with the
   :mod:`repro.diag` machinery (Section IV decoder + empirical mutual
   information).
2. **Apply** — instantiate the patched kernel
   (:func:`repro.mitigations.apply.build_kernel`).
3. **After** — run the patched kernel once under tracing with untainted
   accesses recorded (the cover traffic is untainted by construction —
   that is the point), re-group gadgets to find *residual* tainted
   sites, and feed the metered line stream back through the identical
   diag decoder.  Because every mitigated access expands into a fixed
   per-access burst of cover touches, the stream is first reduced to
   one observation per logical access (the burst's last line) so the
   decoders see the same observation count as on the vulnerable kernel;
   for mitigated sites the reduced stream is a constant and the MI
   collapses to ~0.
4. **Price it** — access-count overhead from the traces, wall-clock
   from untraced native runs (reported as volatile ``elapsed_seconds``
   so perf pinning ignores it).

Output equality against the vulnerable kernel and decodability with the
stock decompressors are asserted along the way (skipped for
Debreach-guarded kernels, whose output legitimately differs; those are
checked for span-disjoint leakage instead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.core.taintchannel.tool import TaintChannel, target_for
from repro.diag.leakage import GadgetLeakage
from repro.exec.context import InstrumentationTier, TracingContext
from repro.mitigations.apply import (
    DEFAULT_HASH_BITS,
    MitigatedKernel,
    build_kernel,
)
from repro.mitigations.plan import MitigationPlan, build_plan
from repro.recovery import survey
from repro.recovery.observe import replay_lines

def _metered_lines(ctx: TracingContext, target: str) -> list[int]:
    """The attacker's line stream over *all* recorded accesses.

    ``ctx.tainted_accesses()`` would drop the untainted cover traffic;
    the channel does not, so neither does the meter.
    """
    sites, kind = survey.observation_filter(target)
    return replay_lines(ctx.memory_accesses(), sites, kind)


def _burst_len(target: str, kernel: MitigatedKernel) -> int:
    """Metered events per logical access on the patched kernel.

    Derived from the wrapper actually constructed during the run: every
    cover wrapper touches one element per covered line, and bzip2's
    ``ftab[j]++`` is a read+write pair per line under the any-kind
    filter.
    """
    sites, _kind = survey.observation_filter(target)
    wrapper = next(
        (kernel.wrappers[s] for s in sites if s in kernel.wrappers), None
    )
    if wrapper is None:
        return 1
    cover = wrapper.cover_count
    return 2 * cover if target == "bzip2" else cover


def _reduce_bursts(lines: list[int], burst: int) -> list[int]:
    """One observation per logical access: the burst's last line (the
    cover sweeps run in ascending line order, so the last touch is the
    input-independent top of the sweep)."""
    if burst <= 1:
        return lines
    if len(lines) % burst:
        raise ValueError(
            f"metered stream ({len(lines)} lines) is not a whole number "
            f"of {burst}-line bursts; the burst model is wrong"
        )
    return lines[burst - 1 :: burst]


def _count_accesses(ctx: TracingContext) -> int:
    return len(ctx.memory_accesses()) + ctx.plain_accesses


def _decode(target: str, blob: bytes) -> bytes:
    if target == "zlib":
        from repro.compression.lz77 import deflate_decompress

        return deflate_decompress(blob)
    if target == "lzw":
        from repro.compression.lzw import lzw_decompress

        return lzw_decompress(blob)
    from repro.compression.bzip2 import bzip2_decompress

    return bzip2_decompress(blob)


@dataclass
class MitigationReport:
    """The before/after verdict for one target/input pair."""

    target: str
    size: int
    input_kind: str
    seed: int
    plan: MitigationPlan
    before: GadgetLeakage
    after: GadgetLeakage
    output_equal: bool
    decodable: bool
    guarded: bool
    guard_ok: bool  # guarded kernels: leaked tags disjoint from spans
    residual_sites: list[str]  # mitigated sites still tainted after
    leftover_sites: list[str]  # sites the plan chose not to cover
    accesses_before: int
    accesses_after: int
    elapsed_seconds: dict = field(default_factory=dict)

    @property
    def access_overhead(self) -> float:
        if not self.accesses_before:
            return 0.0
        return self.accesses_after / self.accesses_before

    def metric_dict(self) -> dict:
        out = {
            "planned_sites": len(self.plan.sites),
            "mitigated_sites": len(self.plan.mitigated_sites()),
            "residual_gadgets": len(self.residual_sites),
            "leftover_gadgets": len(self.leftover_sites),
            "output_equal": int(self.output_equal),
            "decodable": int(self.decodable),
            "guarded": int(self.guarded),
            "guard_ok": int(self.guard_ok),
            "accesses_before": self.accesses_before,
            "accesses_after": self.accesses_after,
            "access_overhead": self.access_overhead,
        }
        out.update(self.before.metric_dict("before."))
        out.update(self.after.metric_dict("after."))
        return out

    def summary(self) -> str:
        lines = [
            f"Mitigation verification — {self.target}, {self.size} bytes "
            f"({self.input_kind}, seed {self.seed})",
            self.plan.summary(),
            "",
            f"{'':24}{'before':>12}{'after':>12}",
        ]
        for label, attr in (
            ("mi (bits/byte)", "mi_bits_per_byte"),
            ("byte accuracy", "byte_accuracy"),
            ("bit accuracy", "bit_accuracy"),
            ("recovered fraction", "recovered_fraction"),
            ("observations", "n_observations"),
        ):
            b = getattr(self.before, attr)
            a = getattr(self.after, attr)
            lines.append(f"{label:24}{b:>12.4f}{a:>12.4f}")
        lines += [
            "",
            f"output byte-identical: {self.output_equal}   "
            f"stock-decodable: {self.decodable}",
            f"residual tainted sites (mitigated): "
            f"{self.residual_sites or 'none'}",
            f"uncovered sites (plan said none/guard): "
            f"{self.leftover_sites or 'none'}",
            f"memory accesses: {self.accesses_before} -> "
            f"{self.accesses_after} "
            f"({self.access_overhead:.1f}x overhead)",
        ]
        if self.guarded:
            lines.append(
                f"guard check (leaked tags outside secret spans): "
                f"{'ok' if self.guard_ok else 'FAILED'}"
            )
        wall = self.elapsed_seconds
        if wall:
            lines.append(
                f"wall clock (native): {wall['vulnerable']:.4f}s -> "
                f"{wall['mitigated']:.4f}s"
            )
        return "\n".join(lines)


def survey_plan(
    target: str,
    data: bytes,
    secret_spans: Optional[list[tuple[int, int]]] = None,
    max_events: int = 4_000_000,
) -> tuple[MitigationPlan, "object"]:
    """Scan the vulnerable kernel and derive its plan.

    Returns ``(plan, analysis_result)``; the result is kept so callers
    can render individual gadget reports alongside the plan.
    """
    with obs.span("mitigate.survey", target=target, size=len(data)):
        tc = TaintChannel(max_events=max_events)
        result = tc.analyze(target, target_for(target, data))
        plan = build_plan(result, secret_spans=secret_spans)
    obs.counter_add(
        "mitigate.sites_planned", len(plan.mitigated_sites())
    )
    return plan, result


def verify_mitigation(
    target: str,
    size: int = 120,
    input_kind: Optional[str] = None,
    seed: int = 7,
    hash_bits: int = DEFAULT_HASH_BITS,
    secret_spans: Optional[list[tuple[int, int]]] = None,
    plan: Optional[MitigationPlan] = None,
    max_events: int = 4_000_000,
) -> MitigationReport:
    """The full survey -> apply -> re-meter loop for one target."""
    from repro.campaign.experiments import make_input
    from repro.diag.leakage import leakage_from_lines, measure_gadget_live
    from repro.exec.context import NativeContext

    if target not in survey.SURVEY_TARGETS:
        raise ValueError(
            f"unknown target {target!r}; choose from {survey.SURVEY_TARGETS}"
        )
    input_kind = input_kind or survey.input_kind(target)
    data = make_input(input_kind, size, seed)

    with obs.span("mitigate.verify", target=target, size=size):
        # 1. Before: scan, plan, meter.
        ctx_before = TracingContext(max_events=max_events)
        target_for(target, data)(ctx_before)
        tc = TaintChannel(max_events=max_events)
        before_scan = tc.analyze(
            target, target_for(target, data), ctx=ctx_before
        )
        if plan is None:
            plan = build_plan(before_scan, secret_spans=secret_spans)
        before = measure_gadget_live(
            target, size, seed, input_kind=input_kind
        )

        # 2. Apply.
        kernel = build_kernel(target, plan, hash_bits=hash_bits)

        # 3. After: one traced run serves the meter and the rescan.
        ctx_after = TracingContext(
            max_events=max_events,
            record_untainted_accesses=True,
            tier=InstrumentationTier.ADDRESS_ONLY,
        )
        kernel.run(data, ctx_after)
        after_scan = tc.analyze(
            target, lambda ctx: None, ctx=ctx_after
        )
        mitigated = {sp.site for sp in plan.mitigated_sites()}
        found_after = {g.site for g in after_scan.gadgets}
        residual = sorted(found_after & mitigated)
        leftover = sorted(found_after - mitigated)

        lines = _metered_lines(ctx_after, target)
        reduced = _reduce_bursts(lines, _burst_len(target, kernel))
        after = leakage_from_lines(
            target, reduced, survey.array_bases(ctx_after), size,
            input_kind, seed,
        )

        # 4. Outputs + the bill.
        t0 = time.perf_counter()
        out_vuln = target_for(target, data)(NativeContext())
        t1 = time.perf_counter()
        out_mit = kernel.run_native(data)
        t2 = time.perf_counter()
        guarded = bool(kernel.guard_spans)
        guard_ok = True
        if guarded:
            secret = set()
            for lo, hi in kernel.guard_spans:
                secret.update(range(lo, hi))
            leaked_idx = {
                after_scan.tags.info(t).index
                for g in after_scan.gadgets
                for t in g.leaked_tags()
                if after_scan.tags.info(t).source == "input"
            }
            guard_ok = not (leaked_idx & secret)

        report = MitigationReport(
            target=target,
            size=size,
            input_kind=input_kind,
            seed=seed,
            plan=plan,
            before=before,
            after=after,
            output_equal=(out_mit == out_vuln),
            decodable=(_decode(target, out_mit) == data),
            guarded=guarded,
            guard_ok=guard_ok,
            residual_sites=residual,
            leftover_sites=leftover,
            accesses_before=_count_accesses(ctx_before),
            accesses_after=_count_accesses(ctx_after),
            elapsed_seconds={
                "vulnerable": t1 - t0,
                "mitigated": t2 - t1,
            },
        )
    obs.counter_add("mitigate.residual_gadgets", len(residual))
    return report
