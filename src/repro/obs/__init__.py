"""repro.obs — zero-overhead-when-off structured observability.

The repo's logging/metrics/tracing substrate: span-based hierarchical
timing, named counters and histograms, and a verbosity-controlled
structured logger, all recording into a bounded in-memory ring and an
optional JSONL sink that ``python -m repro obs report|tail|export|watch``
renders through one reader and one fold (:mod:`repro.obs.watch`).

Disabled (the default) every entry point is a single attribute test, so
instrumentation in the hot layers — the cache model, the campaign
runner, trace capture, the end-to-end attacks — costs one predictable
branch and the perf-smoke pins hold.  Crucially, recording never
touches a simulated-cache or noise RNG stream, so enabling
observability leaves every pinned metrics digest byte-identical.

Enable programmatically::

    from repro import obs
    obs.enable(sink_path="run.jsonl")
    with obs.span("campaign.job", job_id="..."):
        obs.counter_add("campaign.attempts")

or from the environment (inherited by campaign worker processes)::

    REPRO_OBS=run.jsonl REPRO_OBS_LEVEL=debug python -m repro campaign run ...

Cross-process causal tracing lives in :mod:`repro.obs.tracectx`: a
campaign's ``trace_id`` travels on the ``trace`` field of every job
lease (socket worker or inline runner alike; ``REPRO_OBS_TRACE`` hands
one to a whole process) so scheduler, worker, and shard-store spans
stitch into one tree — rendered by ``obs report
--trace`` and exportable to Perfetto via :mod:`repro.obs.export`
(``obs export --format chrome-trace``).
"""

from repro.obs.core import (
    ENV_LEVEL,
    ENV_MAX_BYTES,
    ENV_SINK,
    ENV_TRACE,
    Histogram,
    Logger,
    Span,
    counter_add,
    counters_snapshot,
    disable,
    emit_span_event,
    enable,
    enabled,
    flush,
    get_logger,
    histograms_snapshot,
    log,
    new_span_id,
    observe,
    publish_metrics,
    recent,
    reset,
    span,
    warn_once,
)
from repro._lazy import lazy_exports

# The sink readers and renderers load on first access: a worker that
# only emits events never imports them.
__getattr__, __dir__, _lazy_all = lazy_exports(
    globals(),
    {
        "repro.obs.export": (
            "chrome_trace_document", "chrome_trace_events",
            "profiler_chrome_events", "render_chrome_trace",
        ),
        "repro.obs.report": (
            "format_event", "render_report", "render_span_tree",
            "render_tail", "render_trace", "stitch_spans", "trace_summary",
        ),
        "repro.obs.watch": (
            "MultiSinkFollower", "SinkFollower", "WatchState",
            "expand_sinks", "load_events", "logical_sink", "make_follower",
            "merge_events", "open_sinks", "render_watch", "sparkline",
        ),
    },
)

__all__ = [
    "ENV_LEVEL",
    "ENV_MAX_BYTES",
    "ENV_SINK",
    "ENV_TRACE",
    "Histogram",
    "Logger",
    "Span",
    "counter_add",
    "counters_snapshot",
    "disable",
    "emit_span_event",
    "enable",
    "enabled",
    "flush",
    "get_logger",
    "histograms_snapshot",
    "log",
    "new_span_id",
    "observe",
    "publish_metrics",
    "recent",
    "reset",
    "span",
    "warn_once",
    *_lazy_all,
]
