"""Profilers of the hot paths: cProfile one pinned bench (a ``DIGEST``
pin of :mod:`repro.diag.claims`) or any registered experiment, and
count one analysis target's memory accesses per site.

Behaviour is gated by the claims gate (``repro diag compare``, whose
``claim.DIGEST.*`` rows hash each pinned bench's metrics) and speed by
``perfbench/`` (the workloads ``BENCHMARK.json`` declares); these tools
only explain where a run spends its calls and accesses.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Optional, Sequence


def profile_bench(
    name: str,
    sort: str = "cumulative",
    top: int = 30,
    experiment: Optional[str] = None,
    params: Optional[dict] = None,
    seed: int = 0,
) -> str:
    """cProfile one bench (a ``DIGEST`` pin) or any raw experiment id
    and return the formatted stats table; an unknown bench is a
    ``KeyError`` that lists the bench names."""
    from repro.campaign.experiments import get_experiment
    from repro.diag.claims import DIGEST_PINS

    if experiment is not None:
        label = f"experiment {experiment!r}"
    elif name in DIGEST_PINS:
        experiment, params, seed = DIGEST_PINS[name]
        label = f"bench {name!r}"
    else:
        raise KeyError(f"unknown bench {name!r}; available: {list(DIGEST_PINS)}")
    fn = get_experiment(experiment)

    profiler = cProfile.Profile()
    profiler.enable()
    fn(dict(params or {}), seed)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(sort).print_stats(top)
    return f"profile of {label}\n{out.getvalue()}"


def site_access_profile(
    target: str, data: bytes, max_events: int = 2_000_000
) -> list[dict]:
    """Per-site access counts for a named analysis target.

    Runs the target once under an ``ADDRESS_ONLY``
    :class:`~repro.exec.context.TracingContext` and aggregates its
    memory accesses by ``site`` — the same source-location labels the
    gadget reports and ``repro mitigate`` plans key on, so a hot site
    here is directly cross-referenceable against a gadget scan.

    Each row: ``{site, array, accesses, tainted, share}`` where
    ``share`` is this site's fraction of all recorded accesses and
    ``tainted`` counts accesses whose address carried input taint.
    Rows come back hottest-first.
    """
    from repro.core.taintchannel.tool import target_for
    from repro.exec.context import InstrumentationTier, TracingContext

    ctx = TracingContext(
        tier=InstrumentationTier.ADDRESS_ONLY, max_events=max_events
    )
    target_for(target, data)(ctx)
    rows: dict[str, dict] = {}
    total = 0
    for access in ctx.memory_accesses():
        total += 1
        row = rows.get(access.site)
        if row is None:
            row = rows[access.site] = {
                "site": access.site,
                "array": access.array,
                "accesses": 0,
                "tainted": 0,
            }
        row["accesses"] += 1
        if access.addr_taint:
            row["tainted"] += 1
    out = sorted(rows.values(), key=lambda r: (-r["accesses"], r["site"]))
    for row in out:
        row["share"] = row["accesses"] / total if total else 0.0
    return out


def render_site_profile(
    rows: Sequence[dict], target: str, input_len: int, top: int = 30
) -> str:
    """The hot-table view of :func:`site_access_profile`."""
    total = sum(r["accesses"] for r in rows)
    lines = [
        f"site access profile of target {target!r} "
        f"({input_len}-byte input, {total} accesses, {len(rows)} sites)",
        f"{'site':<40} {'array':<14} {'accesses':>9} "
        f"{'tainted':>8} {'share':>7}",
    ]
    for row in rows[:top]:
        lines.append(
            f"{row['site']:<40} {row['array']:<14} {row['accesses']:>9} "
            f"{row['tainted']:>8} {row['share'] * 100:>6.1f}%"
        )
    if len(rows) > top:
        lines.append(f"... and {len(rows) - top} more sites")
    return "\n".join(lines)
