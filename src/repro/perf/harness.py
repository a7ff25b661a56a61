"""Timing, metrics digests, and the perf pre-steps of the regression gate.

Design decisions worth knowing:

* **Metrics are hashed, not just timed.**  Each bench's returned metrics
  dict is canonicalised (volatile wall-clock fields stripped) and
  sha256-hashed.  A "speedup" that changes experiment output is a bug:
  the digest is an ``equal`` row of the gate payload, so ``perf
  compare`` fails on it whatever the timings say.
* **One payload, one gate.**  :func:`run_benches` returns the
  :mod:`repro.gate` payload directly — per bench a ``<bench>.seconds``
  (``lower``) and a ``<bench>.metrics_digest`` (``equal``) row, with the
  ``(params, seed)`` pins under ``params["benches"]`` — and
  :func:`compare_benches` hands it to :func:`repro.gate.compare` after
  two perf-only pre-steps:

  - a bench whose pin differs between the two files ran a different
    workload, so its rows drop to ``info`` (noted ``pin changed``);
  - **machine normalisation.**  CI runners and dev laptops differ in
    absolute speed, so when at least three benches share a pin every
    current time is divided by the geometric mean of the
    current/baseline ratios: a uniformly slower machine cancels out,
    while one bench regressing *relative to the others* still trips the
    gate.  ``normalize=False`` (CLI ``--absolute``) compares raw seconds.
* **min-of-N timing.**  Repeated runs report the minimum, the standard
  noise-robust estimator for deterministic workloads.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import math
import platform
import pstats
import time
from typing import Callable, Iterable, Optional, Sequence

from repro import gate, obs
from repro.perf.benches import BENCHES, PerfBench, get_bench

# Metrics keys that legitimately vary run to run (wall clock measured
# inside the experiment itself) and must not poison the digest.
VOLATILE_METRIC_KEYS = ("elapsed_seconds", "duration_seconds")

SECONDS = "seconds"
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


def bench_direction(name: str) -> str:
    """Gate direction of a perf row: digests must match, times must
    not grow."""
    return "equal" if name.endswith(f".{DIGEST}") else "lower"


def _bench_of(row: str) -> str:
    return row.rpartition(".")[0]


def _positive(value: object) -> bool:
    return isinstance(value, (int, float)) and value > 0


def _time_bench(
    bench: PerfBench, quick: bool, repeats: Optional[int]
) -> tuple[list[float], dict]:
    n = repeats or (bench.quick_repeats if quick else bench.repeats)
    timings: list[float] = []
    metrics: dict = {}
    for _ in range(max(1, n)):
        start = time.perf_counter()
        metrics = bench.run(quick=quick)
        timings.append(time.perf_counter() - start)
    return timings, metrics


def run_benches(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    on_event: Optional[Callable[[str], None]] = None,
) -> dict:
    """Time the named benches (default: the whole catalogue) into a
    :mod:`repro.gate` payload."""
    benches: Iterable[PerfBench] = (
        BENCHES if not names else [get_bench(name) for name in names]
    )
    mode = "quick" if quick else "full"
    pins: dict[str, dict] = {}
    metrics: dict[str, object] = {}
    for bench in benches:
        if on_event:
            on_event(f"[perf] {bench.name} ({mode}) ...")
        with obs.span("perf.bench", bench=bench.name, mode=mode):
            timings, result = _time_bench(bench, quick, repeats)
        pins[bench.name] = {
            "params": bench.resolved_params(quick),
            "seed": bench.seed,
        }
        metrics[f"{bench.name}.{SECONDS}"] = min(timings)
        metrics[f"{bench.name}.{DIGEST}"] = metrics_digest(result)
        if on_event:
            on_event(f"[perf] {bench.name}: {min(timings):.3f}s")
    params = {
        "quick": quick,
        "python": platform.python_version(),
        "machine": f"{platform.system()}-{platform.machine()}",
        "benches": pins,
    }
    return gate.payload(params, metrics, bench_direction)


def compare_benches(
    current: dict,
    baseline: dict,
    tolerance: float = 0.2,
    normalize: bool = True,
) -> gate.Comparison:
    """The perf regression gate: is ``current`` no worse than
    ``baseline``?  Both are :func:`run_benches` payloads."""
    cur_pins = current["params"].get("benches", {})
    base_pins = baseline["params"].get("benches", {})
    changed = {
        name
        for name in cur_pins.keys() & base_pins.keys()
        if cur_pins[name] != base_pins[name]
    }
    cur = dict(current["metrics"])
    timed = [
        name
        for name in cur
        if name.endswith(f".{SECONDS}")
        and _bench_of(name) not in changed
        and _positive(cur[name])
    ]
    ratios = [
        cur[name] / baseline["metrics"][name]
        for name in timed
        if _positive(baseline["metrics"].get(name))
    ]
    title = "perf compare (absolute times)"
    if normalize and len(ratios) >= 3:
        scale = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        for name in timed:
            cur[name] /= scale
        title = f"perf compare (times / machine scale {scale:.3f})"
    directions = {
        name: "info" if _bench_of(name) in changed else direction
        for name, direction in baseline["directions"].items()
    }
    result = gate.compare(
        cur, dict(baseline, directions=directions), tolerance, title=title
    )
    for row in result.rows:
        if _bench_of(row.name) in changed:
            row.note = "pin changed"
    return result


def profile_bench(
    name: str,
    quick: bool = False,
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
        run = lambda: bench.run(quick=quick)  # noqa: E731
        label = f"bench {bench.name!r} ({'quick' if quick else 'full'})"

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
