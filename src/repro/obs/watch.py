"""Live views over a growing observability sink.

Two pieces, shared by ``repro obs watch`` and ``repro obs tail
--follow``:

* :class:`SinkFollower` — incremental JSONL reader.  Remembers its file
  offset between polls, parses only *complete* lines (a worker killed
  mid-``write`` leaves a truncated tail; the partial line is buffered
  until its newline arrives or skipped if garbage), and tolerates the
  sink not existing yet (the campaign may not have opened it).
* :class:`WatchState` + :func:`render_watch` — an incrementally updated
  aggregate of the event stream and a pure text renderer for it: job
  progress (done/failed/retried against the announced total), rolling
  per-metric sparklines (bit accuracy, mutual information, job
  seconds), merged counters/histograms with tail quantiles, and the
  most recent deduplicated warnings.

The renderer is deliberately a pure function of the state so tests can
drive a poll loop against a live campaign subprocess with a deadline
instead of sleeps, and assert on the rendered text.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from typing import Optional

from repro.obs.core import Histogram

SPARK_CHARS = " ▁▂▃▄▅▆▇█"
ROLLING_WINDOW = 64
# The campaign store's terminal non-ok statuses (``campaign.<status>``
# counters); obs does not import the campaign package.
TERMINAL_FAILURES = ("failed", "timeout", "crashed")


def sparkline(values: list[float], width: int = 24) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    if not values:
        return ""
    tail = [float(v) for v in values[-width:]]
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return SPARK_CHARS[4] * len(tail)
    span = hi - lo
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[1 + int((v - lo) / span * (top - 1))] for v in tail
    )


class SinkFollower:
    """Incrementally read complete JSONL events appended to a sink.

    Each :meth:`poll` reads from the remembered offset to EOF, splits
    on newlines, and keeps any trailing partial line in a buffer for
    the next poll — so a line that is mid-``write`` when we read is
    delivered once complete, and a line truncated forever (worker
    killed) is simply never delivered.  Complete-but-corrupt lines are
    counted in :attr:`corrupt` and skipped.  If the file shrinks (sink
    recreated), the follower restarts from the beginning; if it
    *rotates* (size-capped sinks rename ``sink`` → ``sink.1`` and start
    fresh — detected by the inode changing), the follower first drains
    the unread tail of the rotated generation, then restarts at the new
    file's beginning, so no event is lost or delivered twice.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.offset = 0
        self.corrupt = 0
        self._buffer = ""
        self._ino: Optional[int] = None

    def _decode(self, data: str) -> list[dict]:
        lines = data.split("\n")
        self._buffer = lines.pop()  # "" when data ended in a newline
        events: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                self.corrupt += 1
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                self.corrupt += 1
        return events

    def _read_from(self, path: str) -> list[dict]:
        """Read ``path`` from the remembered offset to EOF and decode."""
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
                self.offset = fh.tell()
        except OSError:
            return []
        return self._decode(self._buffer + chunk)

    def poll(self) -> list[dict]:
        """Newly appended complete events since the last poll."""
        try:
            st = os.stat(self.path)
        except OSError:
            return []
        events: list[dict] = []
        if self._ino is None and self.offset == 0:
            # First contact with the sink.  A generation that rotated
            # out *before* we attached still holds the campaign's
            # earlier events — deliver it first, oldest-first.
            rotated = self.path + ".1"
            if not self.path.endswith(".1") and os.path.exists(rotated):
                events.extend(self._read_from(rotated))
                self.offset = 0
                self._buffer = ""
        if self._ino is not None and st.st_ino != self._ino:
            # The sink rotated out from under us.  The file we were
            # reading should now be at <path>.1 — drain its unread
            # tail (rotation happens on whole-line boundaries) before
            # restarting on the fresh file.
            rotated = self.path + ".1"
            try:
                rotated_st = os.stat(rotated)
            except OSError:
                rotated_st = None
            if (
                rotated_st is not None
                and rotated_st.st_ino == self._ino
                and rotated_st.st_size > self.offset
            ):
                events.extend(self._read_from(rotated))
            self.offset = 0
            self._buffer = ""
        self._ino = st.st_ino
        if st.st_size < self.offset:  # truncated/recreated: start over
            self.offset = 0
            self._buffer = ""
        if st.st_size > self.offset:
            events.extend(self._read_from(self.path))
        return events


class MultiSinkFollower:
    """Follow many sinks (or a glob) as one merged event stream.

    Re-expands the glob on every poll, so shard sinks that appear
    mid-campaign (a worker registering late) are picked up live.  Each
    delivered event is tagged with its source path in ``"_src"``, which
    :class:`WatchState` uses to key counter snapshots per
    ``(sink, pid)`` — the shard-aware version of last-per-pid-then-sum.
    """

    def __init__(self, patterns) -> None:
        if isinstance(patterns, (str, bytes)):
            patterns = [patterns]
        self.patterns = [str(p) for p in patterns]
        self._followers: dict[str, SinkFollower] = {}

    @property
    def corrupt(self) -> int:
        return sum(f.corrupt for f in self._followers.values())

    def poll(self) -> list[dict]:
        """Newly appended complete events across every matching sink."""
        from repro.obs.report import expand_sinks, logical_sink

        expanded = set(expand_sinks(self.patterns))
        for path in expanded:
            # A rotated generation (<sink>.1) whose live sink is also
            # followed is the base follower's job — following both
            # would deliver its events twice.
            if path.endswith(".1") and logical_sink(path) in expanded:
                continue
            if path not in self._followers:
                self._followers[path] = SinkFollower(path)
        events: list[dict] = []
        for path in sorted(self._followers):
            src = logical_sink(path)
            for event in self._followers[path].poll():
                event["_src"] = src
                events.append(event)
        events.sort(key=lambda e: float(e.get("ts", 0.0)))
        return events


def make_follower(sink):
    """The right follower for one path, many paths, or a glob."""
    patterns = [sink] if isinstance(sink, (str, bytes)) else list(sink)
    if len(patterns) == 1 and not any(
        ch in str(patterns[0]) for ch in "*?["
    ):
        return SinkFollower(str(patterns[0]))
    return MultiSinkFollower(patterns)


class WatchState:
    """Incrementally aggregated view of a sink's event stream."""

    def __init__(self, rolling_window: int = ROLLING_WINDOW) -> None:
        self.n_events = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.pids: set = set()
        # Campaign progress: counters are cumulative per pid, so keep
        # the last snapshot per pid and merge on demand.
        self._counters_per_pid: dict = {}
        self._histograms_per_pid: dict = {}
        self.total_jobs: Optional[int] = None
        self.campaign: Optional[str] = None
        # Rolling numeric series from "metrics" events.
        self.series: dict[str, deque] = {}
        self._rolling_window = rolling_window
        self.span_counts: dict[str, int] = {}
        self.warnings: dict[str, dict] = {}

    # -- ingestion -----------------------------------------------------
    def ingest(self, events: list[dict]) -> None:
        """Fold newly polled events in."""
        for event in events:
            self.n_events += 1
            ts = event.get("ts")
            if isinstance(ts, (int, float)):
                if self.first_ts is None:
                    self.first_ts = float(ts)
                self.last_ts = float(ts)
            pid = event.get("pid")
            if pid is not None:
                self.pids.add(pid)
            kind = event.get("kind")
            if kind == "counters":
                # Keyed (sink, pid): None-sink for single-sink watches
                # (the historical behavior), the shard path for merged
                # watches — same pid in two shard sinks must sum.
                key = (event.get("_src"), event.get("pid", 0))
                self._counters_per_pid[key] = event.get("counters", {})
                self._histograms_per_pid[key] = event.get("histograms", {})
            elif kind == "metrics":
                prefix = event.get("name", "?")
                for name, value in (event.get("values") or {}).items():
                    series = self.series.setdefault(
                        f"{prefix}.{name}",
                        deque(maxlen=self._rolling_window),
                    )
                    series.append(float(value))
            elif kind == "span":
                name = event.get("name", "?")
                self.span_counts[name] = self.span_counts.get(name, 0) + 1
            elif kind == "log":
                self._ingest_log(event)

    def _ingest_log(self, event: dict) -> None:
        fields = event.get("fields") or {}
        if event.get("msg") == "campaign started":
            if "jobs" in fields:
                self.total_jobs = int(fields["jobs"])
            if "campaign" in fields:
                self.campaign = str(fields["campaign"])
        if event.get("level") == "warning":
            key = str(fields.get("warn_key", event.get("msg", "?")))
            row = self.warnings.setdefault(
                key, {"msg": event.get("msg", ""), "count": 0, "pids": set()}
            )
            row["count"] += 1
            if event.get("pid") is not None:
                row["pids"].add(event["pid"])

    # -- derived views -------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Merged counters (last snapshot per pid, summed)."""
        merged: dict[str, float] = {}
        for snapshot in self._counters_per_pid.values():
            for name, value in snapshot.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def histograms(self) -> dict[str, Histogram]:
        """Merged histograms (last snapshot per pid, folded)."""
        merged: dict[str, Histogram] = {}
        for snapshot in self._histograms_per_pid.values():
            for name, payload in snapshot.items():
                merged.setdefault(name, Histogram()).merge_dict(payload)
        return merged

    def job_progress(self) -> dict:
        """Done/failed/retried from the campaign counters, which both
        campaign transports (local pool and cluster) emit.  Every
        terminal non-ok status counts as failed."""
        counters = self.counters()
        done = int(counters.get("campaign.ok", 0))
        failed = sum(
            int(counters.get(f"campaign.{status}", 0))
            for status in TERMINAL_FAILURES
        )
        attempts = int(counters.get("campaign.attempts", 0))
        retried = max(0, attempts - done - failed)
        return {
            "done": done,
            "failed": failed,
            "retried": retried,
            "attempts": attempts,
            "total": self.total_jobs,
        }


def render_watch(state: WatchState, sink: str = "", width: int = 78) -> str:
    """The dashboard text for one watch tick (pure function)."""
    lines: list[str] = []
    elapsed = ""
    if state.first_ts is not None and state.last_ts is not None:
        elapsed = f"  span {state.last_ts - state.first_ts:.1f}s"
    title = f"repro obs watch — {sink}" if sink else "repro obs watch"
    lines.append(title[:width])
    lines.append(
        f"events {state.n_events}  pids {len(state.pids)}{elapsed}"
    )

    progress = state.job_progress()
    if progress["attempts"] or progress["total"] is not None:
        total = progress["total"]
        total_txt = f"/{total}" if total is not None else ""
        name = f" [{state.campaign}]" if state.campaign else ""
        lines.append(
            f"jobs{name}: {progress['done']}{total_txt} done  "
            f"{progress['failed']} failed  {progress['retried']} retried"
        )

    if state.series:
        lines.append("")
        lines.append("## rolling metrics")
        for name in sorted(state.series):
            values = list(state.series[name])
            lines.append(
                f"{name:<40} {values[-1]:>12.6f}  {sparkline(values)}"
            )

    counters = state.counters()
    if counters:
        lines.append("")
        lines.append("## counters")
        for name in sorted(counters):
            value = counters[name]
            rendered = (
                f"{value:.0f}" if float(value).is_integer() else f"{value:.4f}"
            )
            lines.append(f"{name:<44} {rendered:>14}")

    histograms = state.histograms()
    if histograms:
        lines.append("")
        lines.append("## histograms")
        for name in sorted(histograms):
            h = histograms[name]
            p50, p95 = h.quantile(0.5), h.quantile(0.95)
            quant = (
                f" p50 {p50:.4f} p95 {p95:.4f}"
                if p50 is not None and p95 is not None
                else ""
            )
            lines.append(
                f"{name:<38} n={h.count:<7} mean {h.mean:.4f}{quant}"
            )

    if state.warnings:
        lines.append("")
        lines.append("## recent warnings")
        rows = sorted(
            state.warnings.items(), key=lambda kv: -kv[1]["count"]
        )
        for _key, row in rows[:8]:
            pids = len(row["pids"])
            lines.append(
                f"[x{row['count']}, {pids} pid{'s' if pids != 1 else ''}] "
                f"{row['msg']}"[:width]
            )

    return "\n".join(lines)


def watch_loop(
    sink,
    interval: float = 0.5,
    duration: Optional[float] = None,
    clear: bool = True,
    emit=None,
    once: bool = False,
) -> WatchState:
    """Poll ``sink`` and re-render the dashboard until interrupted.

    ``sink`` may be one path, a list of paths, or a glob pattern (a
    sharded cluster campaign is watched with
    ``--obs 'runs/x/shard-*/obs.jsonl'``).  ``duration`` bounds the
    loop (None = until Ctrl-C); ``once`` renders a single frame and
    returns — both exist so CI and tests can drive the watch without
    killing a process.  Returns the final state.
    """
    if emit is None:  # pragma: no cover - exercised via CLI
        def emit(text: str) -> None:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
    follower = make_follower(sink)
    title = sink if isinstance(sink, str) else " ".join(str(s) for s in sink)
    state = WatchState()
    deadline = None if duration is None else time.monotonic() + duration
    try:
        while True:
            state.ingest(follower.poll())
            frame = render_watch(state, sink=title)
            if clear and not once:
                frame = "\x1b[2J\x1b[H" + frame
            emit(frame)
            if once:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return state
