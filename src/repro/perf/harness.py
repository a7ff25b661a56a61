"""Metrics digests, and the perf pre-step of the regression gate.

Design decisions worth knowing:

* **Behaviour is hashed, not timed.**  Each bench's returned metrics
  dict is canonicalised (volatile wall-clock fields stripped) and
  sha256-hashed.  A "speedup" that changes experiment output is a bug:
  the digest is an ``equal`` row of the gate payload, so ``perf
  compare`` fails on it.  Speed is measured by ``perfbench/`` (the
  workloads ``BENCHMARK.json`` declares), not here.
* **One payload, one gate.**  :func:`run_benches` runs each bench once
  and returns the :mod:`repro.gate` payload directly — one
  ``<bench>.metrics_digest`` (``equal``) row per bench, with the
  ``(params, seed)`` pins under ``params["benches"]`` — and
  :func:`compare_benches` hands it to :func:`repro.gate.compare` after
  one perf-only pre-step: a bench whose pin differs between the two
  files ran a different workload, so its row drops to ``info`` (noted
  ``pin changed``).
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import platform
import pstats
from typing import Callable, Iterable, Optional, Sequence

from repro import gate, obs
from repro.perf.benches import BENCHES, PerfBench, get_bench

# Metrics keys that legitimately vary run to run (wall clock measured
# inside the experiment itself) and must not poison the digest.
VOLATILE_METRIC_KEYS = ("elapsed_seconds", "duration_seconds")

DIGEST = "metrics_digest"


def metrics_digest(metrics: dict) -> str:
    """sha256 over the canonical JSON of a metrics dict, with volatile
    wall-clock fields stripped; the identity a bench's behaviour is
    pinned by."""
    stable = {
        k: v for k, v in metrics.items() if k not in VOLATILE_METRIC_KEYS
    }
    payload = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _bench_of(row: str) -> str:
    return row.rpartition(".")[0]


def run_benches(
    names: Optional[Sequence[str]] = None,
    on_event: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the named benches (default: the whole catalogue) once each
    into a :mod:`repro.gate` payload of metrics digests."""
    benches: Iterable[PerfBench] = (
        BENCHES if not names else [get_bench(name) for name in names]
    )
    pins: dict[str, dict] = {}
    metrics: dict[str, object] = {}
    for bench in benches:
        if on_event:
            on_event(f"[perf] {bench.name} ...")
        with obs.span("perf.bench", bench=bench.name):
            result = bench.run()
        pins[bench.name] = {"params": dict(bench.params), "seed": bench.seed}
        metrics[f"{bench.name}.{DIGEST}"] = metrics_digest(result)
    params = {
        "python": platform.python_version(),
        "machine": f"{platform.system()}-{platform.machine()}",
        "benches": pins,
    }
    return gate.payload(params, metrics, lambda name: "equal")


def compare_benches(current: dict, baseline: dict) -> gate.Comparison:
    """The perf regression gate: does ``current`` reproduce every
    digest of ``baseline``?  Both are :func:`run_benches` payloads."""
    cur_pins = current["params"].get("benches", {})
    base_pins = baseline["params"].get("benches", {})
    changed = {
        name
        for name in cur_pins.keys() & base_pins.keys()
        if cur_pins[name] != base_pins[name]
    }
    directions = {
        name: "info" if _bench_of(name) in changed else direction
        for name, direction in baseline["directions"].items()
    }
    result = gate.compare(
        current["metrics"],
        dict(baseline, directions=directions),
        tolerance=0.0,
        title="perf compare",
    )
    for row in result.rows:
        if _bench_of(row.name) in changed:
            row.note = "pin changed"
    return result


def profile_bench(
    name: str,
    sort: str = "cumulative",
    top: int = 30,
    experiment: Optional[str] = None,
    params: Optional[dict] = None,
    seed: int = 0,
) -> str:
    """cProfile one bench (or any raw experiment id) and return the
    formatted stats table."""
    if experiment is not None:
        from repro.campaign.experiments import get_experiment

        fn = get_experiment(experiment)
        run = lambda: fn(params or {}, seed)  # noqa: E731
        label = f"experiment {experiment!r}"
    else:
        bench = get_bench(name)
        run = bench.run
        label = f"bench {bench.name!r}"

    profiler = cProfile.Profile()
    profiler.enable()
    run()
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
