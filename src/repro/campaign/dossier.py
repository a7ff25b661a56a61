"""One campaign, one document: the ``repro report`` dossier.

A finished campaign leaves several artefacts on disk — the manifest,
the JSONL result log and (when run with observability on) one or more
obs sinks holding counters, histograms, warnings and the cross-process
span tree.  Each has its own viewer (``campaign status``, ``obs
watch``, ``obs report --trace``); :func:`build_dossier` merges all of
them into one static markdown document, so "what happened in this
campaign" is a single file you can commit, attach to a CI run, or diff
against a previous campaign.

Sections, in order:

1. the campaign report proper (identity, outcome counts, per-cell
   results, failed jobs) — verbatim from
   :func:`repro.campaign.report.render_report`;
2. the per-metric timeseries, derived from ``results.jsonl``: one row
   per metric with summary stats and a unicode sparkline of the per-job
   series;
3. the obs sink summary — merged counters, histogram tails, and
   deduplicated warnings;
4. the trace view — the stitched span tree and critical-path
   breakdown from :func:`repro.obs.report.render_trace`, fenced as
   preformatted text.

Sinks are auto-discovered under the campaign directory
(:func:`discover_sinks`: ``obs.jsonl`` beside the manifest plus
per-worker ``shard-*/obs.jsonl``, rotated generations included) or can
be passed explicitly for sinks that live elsewhere.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.campaign.report import render_report
from repro.campaign.store import ResultStore


def discover_sinks(root) -> list[str]:
    """The obs sinks a campaign run conventionally leaves in its store:
    ``<root>/obs.jsonl`` plus per-worker ``shard-*/obs.jsonl``.
    Rotated ``.1`` generations ride along via ``expand_sinks``."""
    from repro.obs.watch import expand_sinks

    root = Path(root)
    candidates = [
        str(root / "obs.jsonl"),
        str(root / "shard-*" / "obs.jsonl"),
    ]
    return [p for p in expand_sinks(candidates) if Path(p).exists()]


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}"


def _diag_lines(records: dict) -> list[str]:
    """The per-metric timeseries of the job records: in finish order,
    each ok job's numeric metrics (bools as ints) and its duration."""
    from repro.obs.watch import sparkline

    if not records:
        return ["(no job records yet)"]
    series: dict[str, list[float]] = {}
    for record in sorted(records.values(), key=lambda r: (r.finished_at, r.job_id)):
        if not record.ok:
            continue
        values = {
            key: float(int(v) if isinstance(v, bool) else v)
            for key, v in (record.metrics or {}).items()
            if isinstance(v, (int, float))
        }
        values["duration_seconds"] = float(record.duration_seconds)
        for key, value in values.items():
            series.setdefault(key, []).append(value)
    if not series:
        return ["(no successful jobs — no metric series to plot)"]
    lines = [
        f"{len(records)} job points, {len(series)} metric series.",
        "",
        "| metric | n | mean | min | max | last | trend |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, values in sorted(series.items()):
        lines.append(
            f"| {name} | {len(values)} | {_num(sum(values) / len(values))} "
            f"| {_num(min(values))} | {_num(max(values))} "
            f"| {_num(values[-1])} | `{sparkline(values)}` |"
        )
    return lines


def _obs_lines(merged: dict) -> list[str]:
    lines = [
        f"{merged['n_events']} events merged "
        f"({merged['n_logs']} log lines)."
    ]
    if merged["counters"]:
        lines += [
            "",
            "| counter | value |",
            "|---|---|",
        ]
        for name, value in merged["counters"].items():
            lines.append(f"| {name} | {_num(float(value))} |")
    if merged["histograms"]:
        lines += [
            "",
            "| histogram | count | mean | p95 | max | total |",
            "|---|---|---|---|---|---|",
        ]
        for name, h in merged["histograms"].items():
            p95 = h.get("p95")
            lines.append(
                f"| {name} | {h['count']} | {h['mean']:.6g} "
                f"| {p95:.6g} | {h['max']:.6g} | {h['total']:.6g} |"
                if p95 is not None and h.get("max") is not None
                else f"| {name} | {h['count']} | {h['mean']:.6g} "
                f"| — | — | {h['total']:.6g} |"
            )
    if merged["warnings"]:
        lines += ["", "Warnings (deduplicated):", ""]
        for row in merged["warnings"]:
            pids = len(row["pids"])
            lines.append(
                f"- `{row['msg']}` — {row['count']}× across "
                f"{pids} pid{'s' if pids != 1 else ''}"
            )
    return lines


def read_campaign_sinks(
    store: ResultStore, sinks: Optional[Sequence[str]] = None
) -> tuple[list[str], list[dict], int]:
    """``(sinks, events, corrupt_lines)`` of a campaign's obs sinks —
    the given ones, else :func:`discover_sinks`.  Sinks that cannot be
    read give no events."""
    from repro.obs.watch import open_sinks

    sinks = list(sinks) if sinks is not None else discover_sinks(store.root)
    if not sinks:
        return sinks, [], 0
    try:
        follower = open_sinks(sinks)
    except OSError:
        return sinks, [], 0
    return sinks, follower.poll(final=True), follower.corrupt


def build_dossier(
    store: ResultStore,
    sinks: Optional[Sequence[str]] = None,
    events: Optional[list[dict]] = None,
) -> str:
    """The full markdown dossier for one campaign directory.

    ``events`` are the already-read events of ``sinks`` (see
    :func:`read_campaign_sinks`); without them the sinks are read here.
    Reads the campaign directory and writes nothing into it.  Degrades
    gracefully: a run without observability simply notes the missing
    sinks — every section that *can* be produced is.
    """
    records = store.load_records()
    lines = [render_report(store, records).rstrip()]
    lines += ["", "## Diagnostics timeseries", ""]
    lines += _diag_lines(records)

    if events is None:
        sinks, events, _ = read_campaign_sinks(store, sinks)
    lines += ["", "## Observability", ""]
    if not events:
        lines.append(
            "(no obs sinks under the campaign directory — run with "
            "`--obs`/`--obs-shards` to collect one)"
        )
    else:
        from repro.obs.report import render_trace
        from repro.obs.watch import merge_events

        sink_list = ", ".join(f"`{s}`" for s in sinks)
        lines.append(f"Sinks: {sink_list}")
        lines.append("")
        lines += _obs_lines(merge_events(events))
        lines += ["", "## Trace", "", "```"]
        lines.append(render_trace(events))
        lines.append("```")
    lines.append("")
    return "\n".join(lines)
