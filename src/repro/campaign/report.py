"""Aggregation and reporting over a campaign's result store.

Records are grouped into *cells* (one per distinct parameter
combination, pooling trials) and every numeric metric gets a mean,
standard deviation and 95 % confidence interval.  The renderer emits
EXPERIMENTS.md-style markdown: a header block with the campaign's
identity and outcome counts, then one table row per cell.

Failed jobs are never silently dropped: each cell row carries its
ok/failed split, and a campaign-level failure table lists every job that
exhausted its retries, with the recorded error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.campaign.store import STATUS_OK, JobRecord, ResultStore


@dataclass
class CellStats:
    """Aggregate of all trials at one grid cell."""

    params: dict
    n_ok: int = 0
    n_failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> list of values
    durations: list = field(default_factory=list)  # wall time per ok job

    def add(self, record: JobRecord) -> None:
        """Fold one record into the cell."""
        if record.ok and record.metrics is not None:
            self.n_ok += 1
            self.durations.append(record.duration_seconds)
            for key, value in record.metrics.items():
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    self.metrics.setdefault(key, []).append(float(value))
        else:
            self.n_failed += 1

    def mean(self, metric: str) -> Optional[float]:
        """Mean of one metric over the cell's successful trials."""
        values = self.metrics.get(metric)
        if not values:
            return None
        return sum(values) / len(values)

    def mean_duration(self) -> Optional[float]:
        """Mean wall time per successful job (None when all failed)."""
        if not self.durations:
            return None
        return sum(self.durations) / len(self.durations)

    def ci95(self, metric: str) -> Optional[float]:
        """Half-width of the normal-approximation 95 % confidence
        interval (0 for a single trial)."""
        values = self.metrics.get(metric)
        if not values:
            return None
        n = len(values)
        if n < 2:
            return 0.0
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        return 1.96 * math.sqrt(var / n)


def aggregate_records(records: Iterable[JobRecord]) -> list[CellStats]:
    """Group records into per-cell statistics, in deterministic order.

    Crash-tolerant by construction: failed records count toward the
    cell's ``n_failed`` and simply contribute no metric samples.
    """
    cells: dict[tuple, CellStats] = {}
    for record in records:
        key = tuple(sorted(record.params.items()))
        cell = cells.get(key)
        if cell is None:
            cell = CellStats(params=dict(record.params))
            cells[key] = cell
        cell.add(record)
    return [cells[key] for key in sorted(cells, key=repr)]


def _metric_names(cells: list[CellStats]) -> list[str]:
    names: list[str] = []
    for cell in cells:
        for name in cell.metrics:
            if name not in names:
                names.append(name)
    return names


def _param_names(cells: list[CellStats]) -> list[str]:
    names: list[str] = []
    for cell in cells:
        for name in cell.params:
            if name not in names:
                names.append(name)
    return sorted(names)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}"


def render_cells(cells: list[CellStats]) -> str:
    """The per-cell markdown table: parameters, job counts, mean wall
    time per job, and ``mean ± ci95`` per numeric metric."""
    if not cells:
        return "(no records)"
    params = _param_names(cells)
    metrics = _metric_names(cells)
    header = params + ["jobs ok", "jobs failed", "s/job"] + metrics
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for cell in cells:
        row = [str(cell.params.get(p, "")) for p in params]
        row += [str(cell.n_ok), str(cell.n_failed)]
        duration = cell.mean_duration()
        row.append("—" if duration is None else f"{duration:.2f}")
        for metric in metrics:
            mean = cell.mean(metric)
            if mean is None:
                row.append("—")
            else:
                ci = cell.ci95(metric)
                row.append(
                    _fmt(mean) if not ci else f"{_fmt(mean)} ± {_fmt(ci)}"
                )
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_failures(records: Iterable[JobRecord]) -> str:
    """A table of terminally-failed jobs (empty string when none)."""
    failed = [r for r in records if not r.ok]
    if not failed:
        return ""
    lines = [
        "| job | params | trial | status | attempts | error |",
        "|---|---|---|---|---|---|",
    ]
    for r in sorted(failed, key=lambda r: r.job_id):
        lines.append(
            f"| {r.job_id} | {r.params} | {r.trial} | {r.status} "
            f"| {r.attempts} | {(r.error or '').replace('|', '/')} |"
        )
    return "\n".join(lines)


def campaign_status(store: ResultStore) -> dict:
    """Read-only progress snapshot from the JSONL checkpoint.

    Works identically on a live directory, a finished one, or a
    cluster run mid-flight (un-merged ``shard-*/`` records are folded
    in) — this is what ``repro campaign status <dir>`` prints, shared
    by local and cluster runs.
    """
    manifest = store.load_manifest()
    records = store.load_records(include_shards=True)
    by_status: dict[str, int] = {}
    retried = 0
    for record in records.values():
        by_status[record.status] = by_status.get(record.status, 0) + 1
        if record.attempts > 1:
            retried += 1
    n_jobs = int(manifest.get("n_jobs", 0))
    started = manifest.get("started_at")
    finished = manifest.get("finished_at")
    wall = None
    if started is not None:
        import time as _time

        wall = (finished or _time.time()) - started
    return {
        "name": manifest.get("spec", {}).get("name", store.root.name),
        "spec_hash": manifest.get("spec_hash"),
        "n_jobs": n_jobs,
        "recorded": len(records),
        "by_status": dict(sorted(by_status.items())),
        "retried": retried,
        "pending": max(0, n_jobs - len(records)),
        "finished": finished is not None,
        "wall_seconds": wall,
        "shards": len(store.shard_stores()),
    }


def render_status(status: dict) -> str:
    """One compact human block for :func:`campaign_status`."""
    done = status["by_status"].get(STATUS_OK, 0)
    failed = status["recorded"] - done
    lines = [
        f"campaign {status['name']} "
        f"({'finished' if status['finished'] else 'in progress'})",
        f"  jobs:    {status['recorded']}/{status['n_jobs']} recorded, "
        f"{status['pending']} pending",
        f"  done:    {done} ok, {failed} failed "
        f"({', '.join(f'{v} {k}' for k, v in status['by_status'].items() if k != STATUS_OK) or 'none terminal'})",
        f"  retried: {status['retried']} jobs needed more than one attempt",
    ]
    if status["shards"]:
        lines.append(f"  shards:  {status['shards']} worker shard dirs")
    if status["wall_seconds"] is not None:
        lines.append(f"  wall:    {status['wall_seconds']:.1f}s")
    return "\n".join(lines)


def render_report(
    store: ResultStore, records: Optional[dict[str, JobRecord]] = None
) -> str:
    """Full markdown report for one campaign directory; ``records`` are
    its already loaded records (default: load them)."""
    manifest = store.load_manifest()
    if records is None:
        records = store.load_records()
    records = list(records.values())
    cells = aggregate_records(records)
    spec = manifest.get("spec", {})
    n_ok = sum(1 for r in records if r.ok)
    n_failed = len(records) - n_ok

    lines = [
        f"# Campaign — {spec.get('name', store.root.name)}",
        "",
        f"- experiment: `{spec.get('experiment', '?')}`",
        f"- spec hash: `{manifest.get('spec_hash', '?')}`",
        f"- git revision: `{manifest.get('git_revision', '?')}`",
        f"- jobs: {manifest.get('n_jobs', '?')} declared, "
        f"{len(records)} recorded ({n_ok} ok, {n_failed} failed)",
    ]
    started = manifest.get("started_at")
    finished = manifest.get("finished_at")
    if started and finished:
        lines.append(f"- wall time: {finished - started:.1f}s")
    lines += ["", "## Results by cell", "", render_cells(cells)]
    failures = render_failures(records)
    if failures:
        lines += ["", "## Failed jobs", "", failures]
    lines.append("")
    return "\n".join(lines)
