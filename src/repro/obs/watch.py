"""One reader and one fold for observability sinks.

Every view of a sink — ``obs report|export|tail|watch``, the ``repro
report`` dossier, the perfbench campaign workloads — goes through the
same two pieces:

* :class:`SinkFollower` / :class:`MultiSinkFollower` — the only code
  that reads sink bytes.  A follower remembers its offset between
  polls, delivers only complete lines (a torn tail from a worker killed
  mid-``write`` waits for its newline), follows size-capped rotation
  (``sink`` → ``sink.1``), and checks each line's envelope once
  (:func:`valid_event`): a line that fails is skipped and counted in
  ``corrupt``.  :func:`load_events` is one drain of a follower.
* :class:`WatchState` — the only event fold: last counter/histogram
  snapshot per ``(sink, pid)``, span and metric aggregates, rolling
  metric series, deduplicated warnings, log and event counts.
  :func:`merge_events` folds a finished event list into the ``obs
  export`` summary; :func:`render_watch` renders a live one.

The renderer is a pure function of the state, so tests drive a poll
loop against a live campaign subprocess with a deadline instead of
sleeps and assert on the rendered text.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys
import time
from collections import deque
from typing import Callable, Optional

from repro.obs.core import _N_QUANTILE_BINS, Histogram

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


# -- the trust boundary ------------------------------------------------
def _number(value) -> bool:
    """A finite JSON number; ``true``/``false`` are not numbers here."""
    kind = type(value)
    if kind is float:
        return math.isfinite(value)
    return kind is int and -sys.float_info.max <= value <= sys.float_info.max


def _numbers(value) -> bool:
    return isinstance(value, dict) and all(map(_number, value.values()))


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _bin(key: str, n) -> bool:
    return (
        len(key) < 5 and key.isascii() and key.isdigit()
        and int(key) <= _N_QUANTILE_BINS and _count(n)
    )


def _histogram(payload) -> bool:
    """A :meth:`Histogram.to_dict` payload, as far as
    :meth:`Histogram.merge_dict` reads it."""
    if not isinstance(payload, dict):
        return False
    lo, hi, bins = payload.get("min"), payload.get("max"), payload.get("bins", {})
    return (
        _count(payload.get("count", 0))
        and _number(payload.get("total", 0.0))
        and (lo is None or _number(lo))
        and (hi is None or _number(hi))
        and isinstance(bins, dict)
        and all(map(_bin, bins.keys(), bins.values()))
    )


def _str(value) -> bool:
    return isinstance(value, str)


_ENVELOPE = {
    "kind": _str, "name": _str, "level": _str, "msg": _str, "status": _str,
    "id": _str, "trace": _str, "_src": _str,
    "parent": lambda v: v is None or isinstance(v, str),
    "pid": lambda v: type(v) is int, "depth": lambda v: type(v) is int,
    "ts": _number, "dur": _number,
    "fields": lambda v: isinstance(v, dict),
    "counters": _numbers, "values": _numbers,
    "histograms": lambda v: isinstance(v, dict) and all(map(_histogram, v.values())),
}


def valid_event(event) -> bool:
    """Whether one decoded sink line has a well-formed envelope: a JSON
    object whose ``ts``/``dur`` are finite numbers, whose ``counters``
    and metric ``values`` are dicts of numbers, whose ``fields`` is a
    dict, whose histogram payloads are well formed, and whose name-like
    keys are strings.  Absent keys are fine; unknown keys are ignored."""
    if not isinstance(event, dict):
        return False
    for key, value in event.items():
        check = _ENVELOPE.get(key)
        if check is not None and not check(value):
            return False
    return True


# -- the one reader ----------------------------------------------------
def logical_sink(path: str) -> str:
    """The sink a file logically belongs to: ``sink.jsonl.1`` (the
    rotated generation, see ``ObsState._rotate_sink``) maps back to
    ``sink.jsonl``.  Counter snapshots merge last-per-(sink, pid), and
    a rotated generation is the *same* sink — keying by the physical
    path would double-count its cumulative snapshots."""
    return path[:-2] if path.endswith(".1") else path


def expand_sinks(patterns) -> list[str]:
    """Expand sink paths and globs into a sorted, deduplicated list.

    ``patterns`` is one path/glob or a sequence of them — this is what
    lets ``obs report 'runs/x/shard-*/obs.jsonl'`` cover a sharded
    cluster campaign with one argument.  A sink that has rotated
    (``sink.jsonl.1`` exists beside it) contributes both generations.
    """
    if isinstance(patterns, (str, bytes)):
        patterns = [patterns]
    paths: list[str] = []
    for pattern in map(str, patterns):
        paths.extend(glob.glob(pattern) if any(ch in pattern for ch in "*?[") else [pattern])
    paths += [
        p + ".1" for p in paths if not p.endswith(".1") and os.path.exists(p + ".1")
    ]
    return sorted(set(paths))


class SinkFollower:
    """Incrementally read complete, valid JSONL events from one sink.

    Each :meth:`poll` reads from the remembered offset to EOF, splits
    on newlines, and keeps a trailing partial line for the next poll —
    so a line that is mid-``write`` is delivered once complete, and a
    line truncated forever (worker killed) is never delivered.
    ``poll(final=True)`` treats the sink as finished: a last line that
    parses without its newline is delivered, a torn one is corrupt.
    Lines that are not UTF-8 JSON objects with a valid envelope are
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
        self._buffer = b""
        self._ino: Optional[int] = None

    def _decode(self, data: bytes, final: bool) -> list[dict]:
        lines = data.split(b"\n")
        self._buffer = b"" if final else lines.pop()
        events: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # bad UTF-8 or JSON
                event = None
            if valid_event(event):
                events.append(event)
            else:
                self.corrupt += 1
        return events

    def _read_from(self, path: str, final: bool) -> list[dict]:
        """Read ``path`` from the remembered offset to EOF and decode."""
        try:
            with open(path, "rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
        except OSError:
            return []
        self.offset += len(chunk)
        return self._decode(self._buffer + chunk, final)

    def poll(self, final: bool = False) -> list[dict]:
        """Newly appended complete events since the last poll."""
        try:
            st = os.stat(self.path)
        except OSError:
            return []
        rotated = self.path + ".1"
        events: list[dict] = []
        if self._ino is None and self.offset == 0:
            # First contact with the sink.  A generation that rotated
            # out *before* we attached still holds the campaign's
            # earlier events — deliver it first, oldest-first.
            if not self.path.endswith(".1") and os.path.exists(rotated):
                events.extend(self._read_from(rotated, final=True))
                self.offset = 0
        if self._ino is not None and st.st_ino != self._ino:
            # The sink rotated out from under us.  The file we were
            # reading should now be at <path>.1 — drain its unread
            # tail (rotation happens on whole-line boundaries) before
            # restarting on the fresh file.
            try:
                if os.stat(rotated).st_ino == self._ino:
                    events.extend(self._read_from(rotated, final=True))
            except OSError:
                pass
            self.offset = 0
            self._buffer = b""
        self._ino = st.st_ino
        if st.st_size < self.offset:  # truncated/recreated: start over
            self.offset = 0
            self._buffer = b""
        if st.st_size > self.offset or (final and self._buffer):
            events.extend(self._read_from(self.path, final))
        return events


class MultiSinkFollower:
    """Follow many sinks (or a glob) as one merged event stream.

    Re-expands the glob on every poll, so shard sinks that appear
    mid-campaign (a worker registering late) are picked up live.  Each
    delivered event is tagged with its logical sink in ``"_src"``, which
    :class:`WatchState` uses to key counter snapshots per ``(sink,
    pid)``; each poll's events are ordered by timestamp.
    """

    def __init__(self, patterns) -> None:
        if isinstance(patterns, (str, bytes)):
            patterns = [patterns]
        self.patterns = [str(p) for p in patterns]
        self._followers: dict[str, SinkFollower] = {}

    @property
    def corrupt(self) -> int:
        return sum(f.corrupt for f in self._followers.values())

    def poll(self, final: bool = False) -> list[dict]:
        """Newly appended complete events across every matching sink."""
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
            for event in self._followers[path].poll(final):
                event["_src"] = src
                events.append(event)
        events.sort(key=lambda e: float(e.get("ts", 0.0)))
        return events


def make_follower(sink):
    """The live follower for one path, many paths, or a glob."""
    patterns = [sink] if isinstance(sink, (str, bytes)) else list(sink)
    if len(patterns) == 1 and not any(ch in str(patterns[0]) for ch in "*?["):
        return SinkFollower(str(patterns[0]))
    return MultiSinkFollower(patterns)


def open_sinks(patterns):
    """The follower that drains finished sinks (paths or globs).

    One physical file is read in file order; several (shards, or a
    sink beside its rotated generation) merge by timestamp with their
    source tagged.  Raises :class:`FileNotFoundError` when nothing
    matches or a named sink is missing."""
    paths = expand_sinks(patterns)
    missing = [p for p in paths if not os.path.exists(p)]
    if not paths or missing:
        raise FileNotFoundError(f"no obs sink matches {missing or patterns!r}")
    return SinkFollower(paths[0]) if len(paths) == 1 else MultiSinkFollower(paths)


def load_events(patterns) -> list[dict]:
    """Every valid event of one or many finished sinks (globs allowed):
    one drain of :func:`open_sinks`."""
    return open_sinks(patterns).poll(final=True)


def follow(sink, on_poll: Callable[[list], None], interval: float = 0.5,
           duration: Optional[float] = None, once: bool = False):
    """Poll ``sink`` and hand each batch of new events to ``on_poll``.

    Runs until Ctrl-C, until ``duration`` seconds pass, or after one
    poll with ``once``.  Returns the follower (its ``corrupt`` count
    says how many lines the reader skipped)."""
    follower = make_follower(sink)
    deadline = None if duration is None else time.monotonic() + duration
    try:
        while True:
            on_poll(follower.poll())
            if once or (deadline is not None and time.monotonic() >= deadline):
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return follower


# -- the one fold ------------------------------------------------------
class WatchState:
    """Incrementally folded view of a sink's event stream."""

    def __init__(self, rolling_window: int = ROLLING_WINDOW) -> None:
        self.n_events = 0
        self.n_logs = 0
        self.corrupt = 0  # lines the reader skipped (set by watch_loop)
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.pids: set = set()
        # Counters are cumulative per process: keep the last snapshot
        # per (sink, pid) and merge on demand.
        self._snapshots: dict = {}
        self.total_jobs: Optional[int] = None
        self.campaign: Optional[str] = None
        self.spans: dict[str, dict] = {}
        self.metrics: dict[str, dict] = {}
        self.series: dict[str, deque] = {}
        self._rolling_window = rolling_window
        self.warnings: dict[str, dict] = {}

    def ingest(self, events: list[dict]) -> None:
        """Fold events in, in order."""
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
                # None-sink for single-sink reads, the logical sink for
                # merged ones — the same pid in two shards must sum.
                self._snapshots[(event.get("_src"), event.get("pid", 0))] = event
            elif kind == "span":
                agg = self.spans.setdefault(
                    event.get("name", "?"),
                    {"count": 0, "total": 0.0, "max": 0.0, "errors": 0},
                )
                duration = float(event.get("dur", 0.0))
                agg["count"] += 1
                agg["total"] += duration
                agg["max"] = max(agg["max"], duration)
                agg["errors"] += event.get("status") == "error"
            elif kind == "metrics":
                prefix = event.get("name", "?")
                for key, value in (event.get("values") or {}).items():
                    self._ingest_metric(f"{prefix}.{key}", float(value))
            elif kind == "log":
                self.n_logs += 1
                self._ingest_log(event)

    def _ingest_metric(self, name: str, value: float) -> None:
        agg = self.metrics.get(name)
        if agg is None:
            agg = self.metrics[name] = {
                "count": 0, "total": 0.0, "min": math.inf, "max": -math.inf, "last": None,
            }
            self.series[name] = deque(maxlen=self._rolling_window)
        agg["count"] += 1
        agg["total"] += value
        agg["min"] = min(agg["min"], value)
        agg["max"] = max(agg["max"], value)
        agg["last"] = value
        self.series[name].append(value)

    def _ingest_log(self, event: dict) -> None:
        fields = event.get("fields") or {}
        if event.get("msg") == "campaign started":
            if type(fields.get("jobs")) is int:
                self.total_jobs = fields["jobs"]
            if "campaign" in fields:
                self.campaign = str(fields["campaign"])
        if event.get("level") == "warning":
            # warn_once dedupes per process, so forked workers each
            # emit the same warning once; collapse them by warn_key
            # (or message text) with a count and the pids that raised it.
            key = str(fields.get("warn_key", event.get("msg", "?")))
            row = self.warnings.setdefault(
                key, {"msg": event.get("msg", ""), "count": 0, "pids": set()}
            )
            row["count"] += 1
            if event.get("pid") is not None:
                row["pids"].add(event["pid"])

    # -- derived views -------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Merged counters (last snapshot per (sink, pid), summed)."""
        merged: dict[str, float] = {}
        for snapshot in self._snapshots.values():
            for name, value in snapshot.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def histograms(self) -> dict[str, Histogram]:
        """Merged histograms (last snapshot per (sink, pid), folded)."""
        merged: dict[str, Histogram] = {}
        for snapshot in self._snapshots.values():
            for name, payload in snapshot.get("histograms", {}).items():
                merged.setdefault(name, Histogram()).merge_dict(payload)
        return merged

    def summary(self) -> dict:
        """The JSON-ready merge: ``{"counters", "histograms", "spans",
        "metrics", "warnings", "n_logs", "n_events"}``."""
        warnings = [
            {"key": key, "msg": row["msg"], "count": row["count"], "pids": sorted(row["pids"])}
            for key, row in self.warnings.items()
        ]
        return {
            "counters": dict(sorted(self.counters().items())),
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms().items())
            },
            "spans": {name: dict(agg) for name, agg in sorted(self.spans.items())},
            "metrics": {
                name: dict(agg, mean=agg["total"] / agg["count"])
                for name, agg in sorted(self.metrics.items())
            },
            "warnings": sorted(warnings, key=lambda r: (-r["count"], r["key"])),
            "n_logs": self.n_logs,
            "n_events": self.n_events,
        }

    def job_progress(self) -> dict:
        """Done/failed/retried from the campaign counters, which the
        campaign scheduler emits.  Every terminal non-ok status counts
        as failed."""
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


def merge_events(events: list[dict]) -> dict:
    """Fold a finished event list into one JSON-ready summary
    (:meth:`WatchState.summary`)."""
    state = WatchState()
    state.ingest(events)
    return state.summary()


def counter_lines(counters: dict) -> list[str]:
    """One aligned ``name value`` row per counter (integral values
    without decimals)."""
    lines = []
    for name, value in counters.items():
        rendered = f"{value:.0f}" if float(value).is_integer() else f"{value:.4f}"
        lines.append(f"{name:<44} {rendered:>14}")
    return lines


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
        lines += ["", "## rolling metrics"]
        for name in sorted(state.series):
            values = list(state.series[name])
            lines.append(
                f"{name:<40} {values[-1]:>12.6f}  {sparkline(values)}"
            )

    counters = state.counters()
    if counters:
        lines += ["", "## counters"]
        lines += counter_lines(dict(sorted(counters.items())))

    histograms = state.histograms()
    if histograms:
        lines += ["", "## histograms"]
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
        lines += ["", "## recent warnings"]
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
    title = sink if isinstance(sink, str) else " ".join(str(s) for s in sink)
    state = WatchState()

    def on_poll(events: list[dict]) -> None:
        state.ingest(events)
        frame = render_watch(state, sink=title)
        emit("\x1b[2J\x1b[H" + frame if clear and not once else frame)

    state.corrupt = follow(sink, on_poll, interval, duration, once).corrupt
    return state
