"""The TaintChannel tool entry point.

Usage mirrors the paper's interface ("the user has to provide a command
line to invoke the application"): here the target is any callable taking
an :class:`~repro.exec.TracingContext`, typically a closure over the
input file::

    tc = TaintChannel()
    result = tc.analyze("zlib", lambda ctx: deflate_compress(data, ctx))
    report = tc.render(result, result.gadgets[0])  # a string; print it
                                                   # only if *you* are a CLI

Programmatic callers get no stdout noise from this module: everything
returns strings/objects, and the quick demo prints only when the module
itself is executed (``python -m repro.core.taintchannel.tool``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.core.taintchannel.controlflow import (
    ControlFlowDivergence,
    diff_function_traces,
)
from repro.core.taintchannel.gadgets import AnalysisResult, group_gadgets
from repro.core.taintchannel.report import render_gadget
from repro.exec.context import TracingContext

Target = Callable[[TracingContext], object]

KNOWN_TARGETS = ("zlib", "lzw", "bzip2", "aes")


def target_for(name: str, data: bytes) -> Target:
    """Build the standard analysis target for a named algorithm.

    This is the CLI's and the campaign engine's shared notion of "point
    the tool at zlib/lzw/bzip2/aes with this input".  The ``aes`` target
    derives its key and plaintext block from ``data`` and therefore
    refuses an empty input instead of silently analysing an all-zero
    key/block pair (which would make the key-recovery validation
    meaningless).
    """
    from repro.compression import bzip2_compress, deflate_compress, lzw_compress

    if not data and name in KNOWN_TARGETS:
        raise ValueError(
            f"target {name!r} needs a non-empty input "
            f"(got 0 bytes; pass --random N with N > 0, --file, "
            f"--lowercase or --text)"
        )
    if name == "zlib":
        return lambda ctx: deflate_compress(data, ctx)
    if name == "lzw":
        return lambda ctx: lzw_compress(data, ctx)
    if name == "bzip2":
        from repro.compression.bzip2 import single_block_size

        block_size = single_block_size(data)
        return lambda ctx: bzip2_compress(data, ctx, block_size=block_size)
    if name == "aes":
        from repro.crypto.aes import aes128_encrypt_block

        key = (data * 16)[:16]
        block = (data[16:] + b"\x00" * 16)[:16]
        return lambda ctx: aes128_encrypt_block(key, block, ctx)
    raise ValueError(f"unknown target {name!r}")


def run_gadget_scan(
    target: str,
    data: bytes,
    carry_aware_add: bool = False,
    max_events: int = 2_000_000,
) -> dict:
    """Analyse a named target and return a picklable metrics dict.

    The campaign-runnable face of :class:`TaintChannel`: everything in
    the return value is JSON-serialisable, so results survive a process
    boundary and a JSONL store.
    """
    tc = TaintChannel(carry_aware_add=carry_aware_add, max_events=max_events)
    result = tc.analyze(target, target_for(target, data))
    return {
        "target": result.target,
        "input_len": result.input_len,
        "n_gadgets": len(result.gadgets),
        "n_events": result.n_events,
        "n_compares": result.n_compares,
        "input_coverage": result.input_coverage(),
        "gadgets": [
            {
                "site": g.site,
                "array": g.array,
                "accesses": g.count,
                "leaked_input_bytes": sum(
                    1
                    for t in g.leaked_tags()
                    if result.tags.info(t).source == "input"
                ),
            }
            for g in sorted(result.gadgets, key=lambda g: -g.count)
        ],
    }


class TaintChannel:
    """Automatic cache side-channel gadget detector (Section III).

    Args:
        carry_aware_add: use the conservative carry-propagating rule for
            additions instead of the positional one (see
            :mod:`repro.taint.bittaint`).
        max_events: per-run trace budget; protects against unbounded
            loops in the target.
    """

    def __init__(
        self, carry_aware_add: bool = False, max_events: int = 2_000_000
    ) -> None:
        self.carry_aware_add = carry_aware_add
        self.max_events = max_events

    def _make_context(self) -> TracingContext:
        return TracingContext(
            carry_aware_add=self.carry_aware_add, max_events=self.max_events
        )

    def trace(self, target: Target) -> TracingContext:
        """Run the target under tracing and return the raw context."""
        ctx = self._make_context()
        target(ctx)
        return ctx

    def analyze(
        self,
        name: str,
        target: Target,
        ctx: Optional[TracingContext] = None,
    ) -> AnalysisResult:
        """Run the target (or reuse a finished trace) and detect gadgets."""
        with obs.span("taintchannel.analyze", target=name):
            if ctx is None:
                ctx = self.trace(target)
            input_len = sum(
                1
                for tag in range(len(ctx.tags))
                if ctx.tags.info(tag).source == "input"
            )
            result = AnalysisResult(
                target=name,
                input_len=input_len,
                gadgets=group_gadgets(ctx.tainted_accesses()),
                tags=ctx.tags,
                n_events=len(ctx.events),
                n_compares=len(ctx.compares()),
                n_plain_accesses=ctx.plain_accesses,
                geometry={
                    name: (arr.length, arr.elem_size, arr.base)
                    for name, arr in ctx.arrays.items()
                },
            )
        ctx.publish_stats()
        obs.counter_add("taintchannel.gadgets", len(result.gadgets))
        return result

    def render(self, result: AnalysisResult, gadget, **kwargs) -> str:
        """Fig. 2-style report for one gadget of a result."""
        return render_gadget(gadget, result.tags, **kwargs)

    def diff(
        self, target_a: Target, target_b: Target, functions_only: bool = True
    ) -> Optional[ControlFlowDivergence]:
        """Control-flow discovery: run two inputs, diff reduced traces.

        Returns the first divergence, or None when the control flow is
        input-independent at the chosen granularity.
        """
        return diff_function_traces(
            self.trace(target_a), self.trace(target_b), functions_only
        )


def demo(data: bytes = b"the quick brown fox jumps over the lazy dog" * 4,
         target: str = "zlib") -> str:
    """Run TaintChannel on a small input and *return* the rendered
    report — the module's quick demo, side-effect free so programmatic
    callers (and imports) get no stdout noise.  Printing is the
    ``__main__`` guard's job."""
    tc = TaintChannel()
    result = tc.analyze(target, target_for(target, data))
    lines = [result.summary()]
    if result.gadgets:
        lines.append("")
        lines.append(tc.render(result, result.gadgets[0]))
    return "\n".join(lines)


if __name__ == "__main__":
    print(demo())  # noqa: T201 — CLI entry point
