"""The Section IV survey's attacker model, defined once per target.

For each surveyed compressor the paper fixes one leakage gadget and one
view of it (Sec. IV-B zlib ``head[ins_h]``, IV-C LZW ``htab[hp]``, IV-D
bzip2 ``ftab[j]++``):

* the gadget sites the attacker watches and the access kind;
* the cache-line view ``address >> 6`` of each watched access;
* the array whose base address the decoder subtracts;
* the decoder that turns the line stream back into input.

The survey's input regime belongs to the same model: zlib's full
recovery needs lowercase ASCII (known high bits), the others take random
bytes, and bzip2's input seed is the sweep seed plus one.

Every consumer reads these facts from here: the live
``survey_recovery`` experiment and ``repro survey``, trace capture and
replay (:mod:`repro.traces`), the leakage meter (:mod:`repro.diag`) and
the mitigation verifier (:mod:`repro.mitigations.verify`).  A live run
and a replayed trace are therefore filtered and decoded by the same
code.

The repository benchmark (``perfbench/``) times
:func:`run_memory_target` and the decoders by patching their module
attributes, so this module calls them as module globals or through
function-local imports, never through a table built at import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.compression.bzip2 import SITE_FTAB
from repro.compression.lz77 import SITE_HEAD
from repro.compression.lzw import SITE_PRIMARY, SITE_SECONDARY
from repro.recovery.observe import replay_lines


@dataclass(frozen=True)
class SurveyTarget:
    """One compressor's gadget, as the Section IV attacker sees it."""

    sites: tuple[str, ...]  # watched gadget sites
    kind: Optional[str]  # watched access kind (None = any)
    base_array: str  # array whose base the decoder subtracts
    input_kind: str  # the survey's input regime
    seed_offset: int  # input seed = sweep seed + offset


_TARGETS = {
    "zlib": SurveyTarget((SITE_HEAD,), "write", "head", "lowercase", 0),
    "lzw": SurveyTarget(
        (SITE_PRIMARY, SITE_SECONDARY), "read", "htab", "random", 0
    ),
    "bzip2": SurveyTarget((SITE_FTAB,), None, "ftab", "random", 1),
}

# The survey targets, in report order.
SURVEY_TARGETS = tuple(_TARGETS)


def survey_target(target: str) -> SurveyTarget:
    """The model of one target; ``ValueError`` names the known ones."""
    try:
        return _TARGETS[target]
    except KeyError:
        raise ValueError(
            f"unknown gadget target {target!r}; choose from {SURVEY_TARGETS}"
        ) from None


def observation_filter(target: str) -> tuple[tuple[str, ...], Optional[str]]:
    """The ``(sites, kind)`` filter the attacker applies to the access
    stream (for :func:`repro.traces.replay.replay_lines` and
    :func:`~repro.traces.replay.replay_lines_array`)."""
    spec = survey_target(target)
    return spec.sites, spec.kind


def input_kind(target: str) -> str:
    """The survey's input regime for ``target``."""
    return survey_target(target).input_kind


def input_seed(target: str, seed: int) -> int:
    """The input seed ``target`` uses in a survey sweep seeded ``seed``."""
    return seed + survey_target(target).seed_offset


def trace_id(target: str, size: int, seed: int, prefix: str = "survey") -> str:
    """Store id of one target's trace in a captured survey sweep."""
    return f"{prefix}-{target}-n{size}-s{seed}"


def array_bases(ctx) -> dict[str, int]:
    """Base address of every array a traced run allocated."""
    return {name: arr.base for name, arr in ctx.arrays.items()}


def run_memory_target(target: str, data: bytes):
    """Run one survey target under tracing; returns the populated
    :class:`~repro.exec.context.TracingContext`."""
    from repro.exec import InstrumentationTier, TracingContext

    survey_target(target)  # rejects an unknown target
    # The survey and captured ZTRC files use only the access stream,
    # which the ADDRESS_ONLY tier produces byte-identically to FULL.
    ctx = TracingContext(tier=InstrumentationTier.ADDRESS_ONLY)
    if target == "zlib":
        from repro.compression import deflate_compress

        deflate_compress(data, ctx=ctx)
    elif target == "lzw":
        from repro.compression import lzw_compress

        lzw_compress(data, ctx=ctx)
    else:
        from repro.compression.bzip2.blocksort import histogram

        block = ctx.array("block", len(data))
        for i, v in enumerate(ctx.input_bytes(data)):
            block.set(i, v)
        histogram(ctx, block, len(data))
    return ctx


def observe(target: str, data: bytes) -> tuple[list[int], dict[str, int]]:
    """Run ``target`` over ``data`` under tracing now; returns the
    attacker's line stream and the array bases its decoder needs."""
    ctx = run_memory_target(target, data)
    sites, kind = observation_filter(target)
    return replay_lines(ctx.tainted_accesses(), sites, kind), array_bases(ctx)


@dataclass
class Decoded:
    """One Section IV decode, in both views its callers score.

    ``metrics`` are the survey's numbers (``zlib_accuracy``,
    ``lzw_exact_found``/``lzw_candidates``, ``bzip2_bit_accuracy``);
    ``estimates`` is one point estimate per input byte (None = no
    estimate) and ``extras`` the per-target counts the leakage meter
    reports.
    """

    metrics: dict
    estimates: list[Optional[int]]
    extras: dict = field(default_factory=dict)


def decode(
    target: str,
    lines: Sequence[int],
    bases: dict,
    size: int,
    truth: bytes,
) -> Decoded:
    """Run ``target``'s Section IV decoder once over ``lines`` and score
    it against the true input."""
    base = bases[survey_target(target).base_array]

    if target == "zlib":
        from repro.recovery.zlib_recover import accuracy, recover_known_high_bits

        recovered = recover_known_high_bits(lines, base, size)
        return Decoded(
            {"zlib_accuracy": accuracy(recovered, truth)}, list(recovered)
        )

    if target == "lzw":
        from repro.recovery.lzw_recover import recover_lzw_input

        candidates = recover_lzw_input(lines, base, size)
        found = truth in candidates
        # The decoder returns whole-input candidates (first-byte low
        # bits are ambiguous); the point estimate is the first
        # candidate, the attacker's best single guess.
        estimates = list(candidates[0]) if candidates else [None] * size
        return Decoded(
            {"lzw_exact_found": found, "lzw_candidates": len(candidates)},
            estimates,
            {"exact_found": found, "n_candidates": len(candidates)},
        )

    from repro.recovery.bzip2_recover import (
        observations_from_lines,
        recover_bzip2_block,
    )

    result = recover_bzip2_block(observations_from_lines(lines, size), base, size)
    return Decoded(
        {"bzip2_bit_accuracy": result.bit_accuracy(truth)},
        [
            value if candidates else None
            for value, candidates in zip(result.values, result.candidates)
        ],
        {"ambiguous_positions": len(result.ambiguous_positions())},
    )
