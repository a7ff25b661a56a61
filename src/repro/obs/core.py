"""The observability state machine: counters, histograms, spans, logs.

One module-level :class:`ObsState` singleton holds everything; the
public functions in :mod:`repro.obs` delegate to it.  Two properties
shape the whole design:

* **Zero overhead when off.**  Observability is *disabled by default*;
  every recording function starts with a single attribute test
  (``if not STATE.enabled: return``) and :func:`span` returns one
  shared no-op context manager.  Instrumented hot paths therefore cost
  one predictable branch, which is what keeps the ``perfbench/``
  timings of the instrumented layers.
* **The measured channel is never perturbed.**  Nothing here draws from
  ``random`` or numpy RNGs, touches the simulated cache, or mutates an
  experiment's metrics dict — so every pinned metrics digest is
  byte-identical with observability on or off (asserted in
  ``tests/test_obs_integration.py``).

Events (finished spans, log lines, counter snapshots) land in a bounded
in-memory ring — always inspectable via :func:`recent` — and, when a
sink path is configured, as JSONL lines rendered back by
``python -m repro obs report|tail|export``.  Worker processes inherit
activation through the ``REPRO_OBS`` environment variable and append to
the same sink (one ``write`` call per line).

Two cross-process extensions ride the same machinery:

* **Trace context.**  A process may carry a ``trace_id`` and a *remote
  parent* span id (inherited via ``REPRO_OBS_TRACE`` or a cluster job
  message — see :mod:`repro.obs.tracectx`).  Root spans adopt the
  remote parent, and every span event is stamped with the trace id, so
  spans from a scheduler, its workers, and their shard stores merge
  into one causal tree.  Trace ids come from ``uuid4`` (OS entropy),
  never from ``random``/numpy — the non-perturbation contract holds.
* **Sink rotation.**  Long-running services (``cluster serve``) can cap
  the sink: when a write would push the file past ``max_sink_bytes``
  the current sink is renamed to ``<sink>.1`` and a fresh file starts.
  Rotation happens on whole-line boundaries, so followers and the
  report reader never see torn lines.  The cap is checked against the
  file itself, so processes sharing one sink rotate it together.
"""

from __future__ import annotations

import atexit
import itertools
import json
import math
import os
import threading
import time
from collections import deque
from typing import Iterator, Optional

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

ENV_SINK = "REPRO_OBS"
ENV_LEVEL = "REPRO_OBS_LEVEL"
ENV_TRACE = "REPRO_OBS_TRACE"
ENV_MAX_BYTES = "REPRO_OBS_MAX_BYTES"

DEFAULT_RING_SIZE = 4096


# Fixed log-spaced quantile bins: 8 bins per decade over 1e-9 .. 1e9,
# plus bin 0 for non-positive samples.  Sparse per-bin counts serialise
# as a small dict and merge across worker processes by addition, which
# is what lets p50/p95/p99 survive the last-snapshot-per-pid-then-sum
# report pipeline.
_BINS_PER_DECADE = 8
_QUANTILE_LO_EXP = -9
_QUANTILE_HI_EXP = 9
_N_QUANTILE_BINS = (_QUANTILE_HI_EXP - _QUANTILE_LO_EXP) * _BINS_PER_DECADE


def _quantile_bin(value: float) -> int:
    """Bin index for one sample (0 = non-positive, 1.._N clamped)."""
    if value <= 0.0:
        return 0
    idx = 1 + int((math.log10(value) - _QUANTILE_LO_EXP) * _BINS_PER_DECADE)
    if idx < 1:
        return 1
    if idx > _N_QUANTILE_BINS:
        return _N_QUANTILE_BINS
    return idx


def _quantile_bin_value(idx: int) -> float:
    """Representative (geometric-centre) value for a bin index."""
    if idx <= 0:
        return 0.0
    return 10.0 ** (_QUANTILE_LO_EXP + (idx - 0.5) / _BINS_PER_DECADE)


class Histogram:
    """Streaming summary of one named distribution.

    Tracks count/total/min/max plus a sparse fixed-bin (log-spaced)
    histogram good for p50/p95/p99 estimates.  The consumers here want
    "how many, how long, worst case, tail" — store write latencies, job
    durations, queue depths — and a handful of floats plus a sparse
    bin dict merge trivially across worker processes.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.bins: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Fold one sample in."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        idx = _quantile_bin(value)
        self.bins[idx] = self.bins.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples seen (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Fixed-bin estimate of the ``q``-quantile (None when empty).

        The estimate is each bin's geometric centre, clamped to the
        observed [min, max] so single-sample histograms report the
        sample itself.  Payloads merged from pre-quantile sinks may
        carry no bins; the estimate then covers only binned samples.
        """
        binned = sum(self.bins.values())
        if not binned:
            return None
        rank = q * (binned - 1)
        cumulative = 0
        estimate = _quantile_bin_value(max(self.bins))
        for idx in sorted(self.bins):
            cumulative += self.bins[idx]
            if cumulative > rank:
                estimate = _quantile_bin_value(idx)
                break
        if self.count:
            estimate = min(max(estimate, self.minimum), self.maximum)
        return estimate

    def to_dict(self) -> dict:
        """JSON-ready summary (quantiles are fixed-bin estimates)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "bins": {str(idx): n for idx, n in sorted(self.bins.items())},
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge_dict(self, data: dict) -> None:
        """Fold a :meth:`to_dict` payload (e.g. from another process)
        into this histogram.  Payloads written before quantile bins
        existed merge fine — they just contribute no bin counts."""
        count = int(data.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(data.get("total", 0.0))
        lo, hi = data.get("min"), data.get("max")
        if lo is not None and lo < self.minimum:
            self.minimum = float(lo)
        if hi is not None and hi > self.maximum:
            self.maximum = float(hi)
        for raw_idx, n in data.get("bins", {}).items():
            idx = int(raw_idx)
            self.bins[idx] = self.bins.get(idx, 0) + int(n)


class _NullSpan:
    """The shared do-nothing span handed out while observability is
    disabled — one module-level instance, so the disabled cost of
    ``with obs.span(...)`` is a function call and two no-op methods."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **fields) -> None:
        """Ignore annotations."""


NULL_SPAN = _NullSpan()


class Span:
    """One timed, named region of execution.

    Spans nest per thread: entering pushes onto a thread-local stack,
    so children record their parent id and depth and the report CLI can
    rebuild the tree.  The event is emitted at *exit* (duration known),
    tagged ``"error"`` when the body raised.
    """

    __slots__ = (
        "name", "fields", "span_id", "parent_id", "depth",
        "_state", "_wall", "_t0",
    )

    def __init__(self, state: "ObsState", name: str, fields: dict) -> None:
        self.name = name
        self.fields = fields
        self._state = state
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.depth = 0
        self._wall = 0.0
        self._t0 = 0.0

    def note(self, **fields) -> None:
        """Attach extra fields mid-span (recorded at exit)."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        state = self._state
        self.span_id = state.next_span_id()
        stack = state.span_stack()
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        elif state.remote_parent is not None:
            # Root span of this thread, but a parent span exists in
            # another process (scheduler → worker): stitch to it.
            self.parent_id = state.remote_parent
        stack.append(self)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = self._state.span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "kind": "span",
            "ts": self._wall,
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "dur": duration,
            "status": "error" if exc_type is not None else "ok",
            "fields": self.fields,
        }
        if self._state.trace_id is not None:
            event["trace"] = self._state.trace_id
        self._state.emit(event)
        return False


class ObsState:
    """All mutable observability state for one process.

    Counter and histogram updates take a lock (campaign runners emit
    from the scheduler thread while experiments emit from the job), and
    sink writes are one ``handle.write`` per line so concurrent worker
    processes appending to a shared sink interleave whole lines.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.level = LEVELS["info"]
        self.sink_path: Optional[str] = None
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.ring: deque = deque(maxlen=DEFAULT_RING_SIZE)
        self.trace_id: Optional[str] = None
        self.remote_parent: Optional[str] = None
        self.max_sink_bytes: Optional[int] = None
        self._sink_handle = None
        self._sink_stat: Optional[os.stat_result] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_counter = itertools.count(1)
        self._warned: set[str] = set()
        self._atexit_registered = False

    # -- lifecycle -----------------------------------------------------
    def enable(
        self,
        sink_path: Optional[str] = None,
        level: str = "info",
        ring_size: int = DEFAULT_RING_SIZE,
        max_sink_bytes: Optional[int] = None,
    ) -> None:
        """Turn recording on (idempotent; re-enabling swaps the sink).

        ``max_sink_bytes``, when given, caps the sink file: a write
        that would exceed it rotates ``sink`` → ``sink.1`` first.
        Passing ``None`` leaves any previously-set cap in place.
        """
        with self._lock:
            self.level = LEVELS.get(level, LEVELS["info"])
            if ring_size != self.ring.maxlen:
                self.ring = deque(self.ring, maxlen=ring_size)
            if sink_path != self.sink_path and self._sink_handle is not None:
                self._sink_handle.close()
                self._sink_handle = None
            self.sink_path = sink_path
            if max_sink_bytes is not None:
                self.max_sink_bytes = max_sink_bytes
            self.enabled = True
            if not self._atexit_registered:
                atexit.register(self.close)
                self._atexit_registered = True

    def disable(self) -> None:
        """Stop recording; flushes counters to the sink first."""
        self.flush()
        with self._lock:
            self.enabled = False
            if self._sink_handle is not None:
                self._sink_handle.close()
                self._sink_handle = None
            self.sink_path = None

    def reset(self) -> None:
        """Drop all recorded state (tests; does not touch the sink file)."""
        self.disable()
        with self._lock:
            self.counters.clear()
            self.histograms.clear()
            self.ring.clear()
            self._warned.clear()
            self.trace_id = None
            self.remote_parent = None
            self.max_sink_bytes = None

    def close(self) -> None:
        """atexit hook: persist the final counter snapshot."""
        if self.enabled:
            self.flush()
            with self._lock:
                if self._sink_handle is not None:
                    self._sink_handle.close()
                    self._sink_handle = None

    # -- span bookkeeping ----------------------------------------------
    def next_span_id(self) -> str:
        """Process-unique span id (pid-prefixed so ids from workers
        sharing a sink never collide)."""
        return f"{os.getpid()}-{next(self._span_counter)}"

    def span_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- event emission ------------------------------------------------
    def _open_sink(self) -> None:
        """Open the sink for append and remember which file it is."""
        self._sink_handle = open(self.sink_path, "a", encoding="utf-8")
        self._sink_stat = os.fstat(self._sink_handle.fileno())

    def _reopen_sink(self) -> None:
        self._sink_handle.close()
        self._open_sink()

    def _rotate_sink(self) -> None:
        """Rename ``sink`` → ``sink.1`` and start a fresh file.

        Called between whole-line writes, so both the rotated file and
        the new one contain only complete JSONL lines.  One rotated
        generation is kept; an older ``.1`` is overwritten.
        """
        try:
            os.replace(self.sink_path, self.sink_path + ".1")
        except OSError:
            pass
        self._reopen_sink()

    def _enforce_cap(self, n: int) -> None:
        """Rotate first if writing ``n`` more bytes would push the sink
        past ``max_sink_bytes``.

        Campaign workers append to one shared sink, so the size comes
        from the file, never from this process's own writes; and when
        another writer has rotated, the path no longer names the open
        file, so this writer follows it instead of appending to ``.1``.
        """
        try:
            st = os.stat(self.sink_path)
        except FileNotFoundError:
            st = None
        if st is None or not os.path.samestat(st, self._sink_stat):
            self._reopen_sink()
            st = self._sink_stat
        if st.st_size > 0 and st.st_size + n > self.max_sink_bytes:
            self._rotate_sink()

    def emit(self, event: dict) -> None:
        """Append one event to the ring and, if configured, the sink."""
        with self._lock:
            self.ring.append(event)
            if self.sink_path is not None:
                line = json.dumps(event, sort_keys=True, default=str) + "\n"
                if self._sink_handle is None:
                    self._open_sink()
                if self.max_sink_bytes is not None:
                    self._enforce_cap(len(line))
                self._sink_handle.write(line)
                self._sink_handle.flush()

    def flush(self) -> None:
        """Emit a cumulative snapshot of counters and histograms.

        Snapshots are cumulative per process; the report renderer keeps
        the last snapshot per pid and sums across pids.
        """
        if not self.enabled:
            return
        with self._lock:
            has_data = bool(self.counters or self.histograms)
            snapshot = {
                "kind": "counters",
                "ts": time.time(),
                "pid": os.getpid(),
                "counters": dict(self.counters),
                "histograms": {
                    name: h.to_dict() for name, h in self.histograms.items()
                },
            }
        if has_data:
            self.emit(snapshot)


STATE = ObsState()


def _zero_metrics_in_child() -> None:
    """A forked child (a campaign's forked worker) starts its counters and
    histograms at zero: snapshots are cumulative per pid, so values
    inherited from the parent would be counted once per process."""
    STATE.counters.clear()
    STATE.histograms.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_zero_metrics_in_child)


# -- module-level API (what instrumented code calls) -------------------
def enabled() -> bool:
    """Whether observability is currently recording."""
    return STATE.enabled


def enable(
    sink_path: Optional[str] = None,
    level: str = "info",
    ring_size: int = DEFAULT_RING_SIZE,
    max_sink_bytes: Optional[int] = None,
) -> None:
    """Turn observability on, optionally streaming events to a JSONL
    sink that ``python -m repro obs report`` renders later.

    ``max_sink_bytes`` bounds the sink for long-running services:
    when set, the sink rotates to ``<sink>.1`` instead of growing
    without limit (see :meth:`ObsState.enable`)."""
    STATE.enable(
        sink_path=sink_path,
        level=level,
        ring_size=ring_size,
        max_sink_bytes=max_sink_bytes,
    )


def disable() -> None:
    """Turn observability off (flushes pending counters first)."""
    STATE.disable()


def reset() -> None:
    """Disable and clear every counter, histogram, and ring event."""
    STATE.reset()


def span(name: str, **fields):
    """A timed, named, nestable region::

        with obs.span("campaign.job", job_id=job.job_id):
            ...

    Returns the shared no-op span while disabled, so the off cost is
    one branch."""
    if not STATE.enabled:
        return NULL_SPAN
    return Span(STATE, name, fields)


def new_span_id() -> str:
    """Reserve a process-unique span id without opening a span.

    For long-lived regions that cannot live on the thread-local span
    stack — e.g. the cluster scheduler's campaign span, which stays
    open across many event-loop callbacks while other campaigns
    interleave.  Hand the id to children (via trace context) now, then
    emit the span itself with :func:`emit_span_event` when the region
    ends.  Returns ``""`` while observability is off.
    """
    if not STATE.enabled:
        return ""
    return STATE.next_span_id()


def emit_span_event(
    name: str,
    ts: float,
    dur: float,
    span_id: Optional[str] = None,
    parent: Optional[str] = None,
    status: str = "ok",
    trace: Optional[str] = None,
    **fields,
) -> Optional[str]:
    """Emit one finished-span event directly (no stack interaction).

    The manual counterpart of :func:`span` for regions whose id was
    reserved earlier with :func:`new_span_id`.  ``ts`` is the wall-clock
    start, ``dur`` the duration in seconds.  Returns the span id used,
    or None while observability is off.
    """
    if not STATE.enabled:
        return None
    sid = span_id or STATE.next_span_id()
    event = {
        "kind": "span",
        "ts": ts,
        "name": name,
        "id": sid,
        "parent": parent,
        "depth": 0,
        "dur": dur,
        "status": status,
        "fields": fields,
    }
    trace_id = trace if trace is not None else STATE.trace_id
    if trace_id is not None:
        event["trace"] = trace_id
    STATE.emit(event)
    return sid


def counter_add(name: str, value: float = 1) -> None:
    """Add ``value`` to the named monotonic counter."""
    if not STATE.enabled:
        return
    with STATE._lock:
        STATE.counters[name] = STATE.counters.get(name, 0) + value


def observe(name: str, value: float) -> None:
    """Fold one sample into the named histogram."""
    if not STATE.enabled:
        return
    with STATE._lock:
        hist = STATE.histograms.get(name)
        if hist is None:
            hist = STATE.histograms[name] = Histogram()
        hist.observe(value)


def log(level: str, message: str, **fields) -> None:
    """Record one structured log line (ring + sink, never stdout)."""
    state = STATE
    if not state.enabled:
        return
    if LEVELS.get(level, 0) < state.level:
        return
    state.emit(
        {
            "kind": "log",
            "ts": time.time(),
            "pid": os.getpid(),
            "level": level,
            "msg": message,
            "fields": fields,
        }
    )


def warn_once(key: str, message: str, **fields) -> bool:
    """Emit a warning log at most once per ``key`` per process.

    The event carries ``warn_key`` so report rendering can deduplicate
    the same warning re-emitted by forked workers (each process has its
    own ``_warned`` set).  Returns True when this call actually emitted
    (callers can mirror the warning to their own progress stream
    exactly as often)."""
    if not STATE.enabled:
        # Still deduplicate, so callers mirroring the warning to their
        # own output don't repeat it when obs is off.
        with STATE._lock:
            if key in STATE._warned:
                return False
            STATE._warned.add(key)
        return True
    with STATE._lock:
        if key in STATE._warned:
            return False
        STATE._warned.add(key)
    log("warning", message, **{"warn_key": key, **fields})
    return True


def publish_metrics(name: str, values: dict, **fields) -> None:
    """Emit one ``"metrics"`` event carrying the numeric entries of
    ``values`` (non-numeric entries are dropped; the dict is read, never
    mutated).  This is how campaign workers stream per-job diagnostics
    — bit accuracy, mutual information, durations — into the sink for
    ``repro obs watch``."""
    if not STATE.enabled:
        return
    numeric = {
        key: (int(value) if isinstance(value, bool) else value)
        for key, value in values.items()
        if isinstance(value, (int, float))
    }
    if not numeric:
        return
    STATE.emit(
        {
            "kind": "metrics",
            "ts": time.time(),
            "pid": os.getpid(),
            "name": name,
            "fields": fields,
            "values": numeric,
        }
    )


def flush() -> None:
    """Persist the current counter/histogram snapshot to the sink."""
    STATE.flush()


def recent(n: Optional[int] = None) -> list[dict]:
    """The last ``n`` ring events (all of them when ``n`` is None)."""
    events = list(STATE.ring)
    return events if n is None else events[-n:]


def counters_snapshot() -> dict[str, float]:
    """A copy of the current counter values."""
    with STATE._lock:
        return dict(STATE.counters)


def histograms_snapshot() -> dict[str, dict]:
    """A copy of the current histogram summaries."""
    with STATE._lock:
        return {name: h.to_dict() for name, h in STATE.histograms.items()}


class Logger:
    """A named, leveled logger routing through the obs event stream.

    Replaces bare ``print()`` in library code: silent by default
    (observability off), structured when on, and never writes stdout —
    machine-parsed CLI output stays clean.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _log(self, level: str, message: str, fields: dict) -> None:
        if not STATE.enabled:
            return
        log(level, message, logger=self.name, **fields)

    def debug(self, message: str, **fields) -> None:
        """Log at debug level."""
        self._log("debug", message, fields)

    def info(self, message: str, **fields) -> None:
        """Log at info level."""
        self._log("info", message, fields)

    def warning(self, message: str, **fields) -> None:
        """Log at warning level."""
        self._log("warning", message, fields)

    def error(self, message: str, **fields) -> None:
        """Log at error level."""
        self._log("error", message, fields)


def get_logger(name: str) -> Logger:
    """The module-level way to get a :class:`Logger`."""
    return Logger(name)


def _activate_from_env() -> None:
    """Honour ``REPRO_OBS`` at import: unset/empty/``0`` leaves
    observability off; ``1``/``true`` enables ring-only recording; any
    other value is treated as a JSONL sink path.  This is how campaign
    worker processes inherit the parent's ``--obs`` flag.

    ``REPRO_OBS_TRACE`` (``"<trace_id>:<parent_span_id>"``) installs
    the inherited trace context even when no sink is configured, and
    ``REPRO_OBS_MAX_BYTES`` carries the sink rotation cap into worker
    processes.  Neither touches any RNG stream.
    """
    raw_trace = os.environ.get(ENV_TRACE, "").strip()
    if raw_trace:
        trace_id, _, parent = raw_trace.partition(":")
        STATE.trace_id = trace_id or None
        STATE.remote_parent = parent or None
    raw = os.environ.get(ENV_SINK, "").strip()
    if not raw or raw == "0" or raw.lower() == "false":
        return
    level = os.environ.get(ENV_LEVEL, "info").strip().lower() or "info"
    sink = None if raw == "1" or raw.lower() == "true" else raw
    raw_cap = os.environ.get(ENV_MAX_BYTES, "").strip()
    max_sink_bytes = None
    if raw_cap:
        try:
            max_sink_bytes = int(raw_cap) or None
        except ValueError:
            max_sink_bytes = None
    enable(sink_path=sink, level=level, max_sink_bytes=max_sink_bytes)


_activate_from_env()
