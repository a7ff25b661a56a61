"""Render observability sinks back into human-readable form.

Three views, matching the ``python -m repro obs`` subcommands:

* :func:`render_report` — merged counter/histogram tables plus
  per-span-name timing aggregates and the reconstructed span tree;
* :func:`render_trace` — the cross-process trace view
  (``obs report --trace``): the stitched span tree over all merged
  sinks and a critical-path breakdown of campaign wall-clock into
  queue-wait / compute / retry-backoff / merge;
* :func:`render_tail` — the last N events, one formatted line each.

Every view renders events read by :func:`repro.obs.watch.load_events`
and aggregates by :func:`repro.obs.watch.merge_events` (the one reader
and the one fold; both are importable from here too).
"""

from __future__ import annotations

from typing import Optional

# load_events is re-exported: callers read sinks through this module too.
from repro.obs.watch import counter_lines, load_events, merge_events  # noqa: F401


def stitch_spans(events: list[dict]) -> dict:
    """Link a (possibly multi-sink) event stream's spans into a tree.

    Span ids are pid-prefixed, so a merged stream from scheduler and
    worker sinks stitches naturally: a worker span whose ``parent`` is
    a scheduler span id attaches to it the moment both sinks are read
    together.  Returns ``{"roots", "orphans", "children", "by_id"}``
    where roots have ``parent is None`` and orphans name a parent that
    never reached any of the sinks read (a killed worker's parent
    process, a sink glob that missed a shard, ...).
    """
    span_events = [e for e in events if e.get("kind") == "span"]
    children: dict[Optional[str], list[dict]] = {}
    for event in span_events:
        children.setdefault(event.get("parent"), []).append(event)
    by_id = {e.get("id"): e for e in span_events}
    roots = [e for e in span_events if e.get("parent") is None]
    orphans = [
        e
        for e in span_events
        if e.get("parent") is not None and e.get("parent") not in by_id
    ]
    return {
        "roots": roots,
        "orphans": orphans,
        "children": children,
        "by_id": by_id,
    }


def _fields_suffix(event: dict) -> str:
    fields = event.get("fields") or {}
    return "".join(f" {k}={v}" for k, v in sorted(fields.items()))


def render_span_tree(
    events: list[dict], max_roots: int = 10, max_depth: int = 6
) -> str:
    """Reconstruct parent/child span nesting and render it indented,
    slowest roots first.

    Orphaned spans — ones naming a parent that never reached the sink
    (cross-pid parents whose sink wasn't merged in, a scheduler killed
    before emitting its campaign span) — are never dropped: they are
    grouped under one synthetic root at the end, each keeping its own
    subtree."""
    stitched = stitch_spans(events)
    if not stitched["by_id"]:
        return "(no spans)"
    children = stitched["children"]
    roots = sorted(
        stitched["roots"], key=lambda e: -float(e.get("dur", 0.0))
    )
    orphans = sorted(
        stitched["orphans"], key=lambda e: -float(e.get("dur", 0.0))
    )

    lines: list[str] = []

    def walk(event: dict, depth: int) -> None:
        if depth > max_depth:
            return
        marker = " !" if event.get("status") == "error" else ""
        lines.append(
            f"{'  ' * depth}{event.get('name')}  "
            f"{float(event.get('dur', 0.0)) * 1e3:.2f} ms{marker}"
            f"{_fields_suffix(event)}"
        )
        kids = children.get(event.get("id"), [])
        kids.sort(key=lambda e: float(e.get("ts", 0.0)))
        for kid in kids:
            walk(kid, depth + 1)

    for root in roots[:max_roots]:
        walk(root, 0)
    if len(roots) > max_roots:
        lines.append(f"... and {len(roots) - max_roots} more root spans")
    if orphans:
        lines.append(
            f"(orphaned: {len(orphans)} span"
            f"{'s' if len(orphans) != 1 else ''} whose parent never "
            f"reached the sink)"
        )
        for orphan in orphans[:max_roots]:
            walk(orphan, 1)
        if len(orphans) > max_roots:
            lines.append(
                f"  ... and {len(orphans) - max_roots} more orphaned spans"
            )
    return "\n".join(lines)


# ``campaign.run`` roots the campaigns of sinks written before every
# campaign ran through the scheduler's ``cluster.campaign`` span.
ROOT_SPAN_NAMES = ("cluster.campaign", "campaign.run")


def trace_summary(events: list[dict]) -> dict:
    """Critical-path attribution for a merged campaign trace.

    Breaks the campaign root span's wall-clock into where the time
    went, using the telemetry every layer already emits:

    * ``queue_wait`` — the enqueue(eligible)→lease histogram
      (``cluster.lease_wait_seconds``), i.e. jobs ready but waiting
      for a worker;
    * ``compute`` — total ``campaign.job`` span time across workers
      (can exceed wall-clock: it sums over parallel workers);
    * ``retry_backoff`` — deliberate delay before re-running failed
      jobs (``cluster.backoff_seconds``, from either transport);
    * ``merge`` — ``store.merge`` span time folding worker shards at
      finalize.

    Also reports the tree's health: trace ids seen, root span, span
    and orphan counts — the CI cluster drill asserts
    ``n_orphans == 0`` on exactly this structure.
    """
    merged = merge_events(events)
    stitched = stitch_spans(events)
    root = None
    for name in ROOT_SPAN_NAMES:
        named = [e for e in stitched["roots"] if e.get("name") == name]
        if named:
            root = max(named, key=lambda e: float(e.get("dur", 0.0)))
            break
    if root is None and stitched["roots"]:
        root = max(
            stitched["roots"], key=lambda e: float(e.get("dur", 0.0))
        )

    def _span_total(name: str) -> float:
        agg = merged["spans"].get(name)
        return float(agg["total"]) if agg else 0.0

    def _hist_total(name: str) -> float:
        h = merged["histograms"].get(name)
        return float(h["total"]) if h else 0.0

    trace_ids = sorted(
        {e["trace"] for e in events if e.get("trace") is not None}
    )
    return {
        "trace_ids": trace_ids,
        "root": None
        if root is None
        else {
            "name": root.get("name"),
            "id": root.get("id"),
            "dur": float(root.get("dur", 0.0)),
        },
        "wall_seconds": float(root.get("dur", 0.0)) if root else None,
        "queue_wait_seconds": _hist_total("cluster.lease_wait_seconds"),
        "compute_seconds": _span_total("campaign.job"),
        "retry_backoff_seconds": _hist_total("cluster.backoff_seconds"),
        "merge_seconds": _span_total("store.merge"),
        "n_spans": len(stitched["by_id"]),
        "n_roots": len(stitched["roots"]),
        "n_orphans": len(stitched["orphans"]),
    }


def render_trace(
    events: list[dict], max_roots: int = 20, max_depth: int = 12
) -> str:
    """The ``obs report --trace`` view: the merged cross-pid span tree
    plus the critical-path breakdown of campaign wall-clock."""
    summary = trace_summary(events)
    lines: list[str] = []
    if summary["trace_ids"]:
        lines.append(f"trace: {', '.join(summary['trace_ids'])}")
    else:
        lines.append("trace: (no trace ids recorded)")
    lines.append(
        f"spans: {summary['n_spans']} "
        f"({summary['n_roots']} roots, {summary['n_orphans']} orphaned)"
    )
    lines += [
        "",
        "## span tree",
        render_span_tree(events, max_roots=max_roots, max_depth=max_depth),
    ]

    lines += ["", "## critical path"]
    if summary["root"] is None:
        lines.append("(no root span — cannot attribute wall-clock)")
        return "\n".join(lines)
    wall = summary["wall_seconds"] or 0.0

    def _row(label: str, seconds: float) -> str:
        share = f"{seconds / wall * 100.0:5.1f}%" if wall > 0 else "     -"
        return f"{label:<38} {seconds:>10.3f} s  {share}"

    lines.append(
        f"{'campaign wall-clock (' + str(summary['root']['name']) + ')':<38} "
        f"{wall:>10.3f} s"
    )
    lines.append(_row("  queue-wait (eligible -> leased)",
                      summary["queue_wait_seconds"]))
    lines.append(_row("  compute (campaign.job, all workers)",
                      summary["compute_seconds"]))
    lines.append(_row("  retry backoff", summary["retry_backoff_seconds"]))
    lines.append(_row("  shard merge (store.merge)",
                      summary["merge_seconds"]))
    lines.append(
        "(compute sums across parallel workers and may exceed wall-clock)"
    )
    return "\n".join(lines)


def render_report(events: list[dict]) -> str:
    """The full ``obs report`` text: counters, histograms, span
    aggregates, and the span tree."""
    merged = merge_events(events)
    lines: list[str] = [
        f"observability report: {merged['n_events']} events, "
        f"{merged['n_logs']} log lines"
    ]

    if merged["counters"]:
        lines += ["", "## counters", f"{'name':<44} {'value':>14}"]
        lines += counter_lines(merged["counters"])

    if merged["histograms"]:
        lines += [
            "",
            "## histograms",
            f"{'name':<34} {'count':>8} {'mean':>12} {'min':>12} "
            f"{'max':>12} {'p50':>12} {'p95':>12} {'p99':>12}",
        ]

        def _q(h: dict, key: str) -> str:
            value = h.get(key)
            return f"{value:>12.6f}" if value is not None else f"{'-':>12}"

        for name, h in merged["histograms"].items():
            lines.append(
                f"{name:<34} {h['count']:>8} {h['mean']:>12.6f} "
                + " ".join(_q(h, key) for key in ("min", "max", "p50", "p95", "p99"))
            )

    if merged["metrics"]:
        lines += [
            "",
            "## job metrics",
            f"{'name':<44} {'count':>7} {'mean':>12} {'min':>12} "
            f"{'max':>12} {'last':>12}",
        ]
        for name, agg in merged["metrics"].items():
            lines.append(
                f"{name:<44} {agg['count']:>7} {agg['mean']:>12.6f} "
                f"{agg['min']:>12.6f} {agg['max']:>12.6f} "
                f"{agg['last']:>12.6f}"
            )

    if merged["spans"]:
        lines += [
            "",
            "## spans",
            f"{'name':<34} {'count':>8} {'total s':>10} {'mean ms':>10} "
            f"{'max ms':>10} {'errors':>7}",
        ]
        for name, agg in merged["spans"].items():
            mean_ms = agg["total"] / agg["count"] * 1e3 if agg["count"] else 0.0
            lines.append(
                f"{name:<34} {agg['count']:>8} {agg['total']:>10.3f} "
                f"{mean_ms:>10.2f} {agg['max'] * 1e3:>10.2f} "
                f"{agg['errors']:>7}"
            )
        lines += ["", "## span tree", render_span_tree(events)]

    if merged["warnings"]:
        lines += ["", "## warnings"]
        for row in merged["warnings"]:
            pids = len(row["pids"])
            lines.append(
                f"[x{row['count']}, {pids} pid{'s' if pids != 1 else ''}] "
                f"{row['msg']}"
            )

    if len(lines) == 1:
        lines.append("(sink holds no counters, histograms, or spans)")
    return "\n".join(lines)


def format_event(event: dict) -> str:
    """One event as one ``obs tail`` line."""
    kind = event.get("kind")
    ts = float(event.get("ts", 0.0))
    if kind == "log":
        return (
            f"{ts:.3f} {event.get('level', '?'):<8} "
            f"{event.get('msg', '')}{_fields_suffix(event)}"
        )
    if kind == "span":
        return (
            f"{ts:.3f} span     {event.get('name')} "
            f"{float(event.get('dur', 0.0)) * 1e3:.2f} ms "
            f"[{event.get('status', 'ok')}]"
        )
    if kind == "counters":
        return (
            f"{ts:.3f} counters pid={event.get('pid')} "
            f"{len(event.get('counters', {}))} counters, "
            f"{len(event.get('histograms', {}))} histograms"
        )
    if kind == "metrics":
        values = event.get("values") or {}
        rendered = " ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(values.items())
        )
        return f"{ts:.3f} metrics  {event.get('name', '?')} {rendered}"
    return f"{ts:.3f} {kind or '?'}"


def render_tail(events: list[dict], n: int = 20) -> str:
    """The last ``n`` events, formatted (none for ``n == 0``)."""
    if not events:
        return "(no events)"
    return "\n".join(format_event(e) for e in events[max(0, len(events) - n):])
