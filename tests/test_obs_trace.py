"""Causal tracing: trace context, cross-process stitching, sink
rotation, and the Chrome Trace / critical-path exports.

The contract under test: a campaign gets one ``trace_id``; spans in
every participating process join that trace (root spans adopt the
remote parent, nested spans keep their local parent); the context
travels on each job lease (or ``REPRO_OBS_TRACE``) and never touches an
RNG stream; rotated sinks still reconstruct the full tree; and the
merged events export losslessly to the Trace Event Format.
"""

import json
import random

import pytest

from repro import obs
from repro.obs import tracectx
from repro.obs.core import _activate_from_env
from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    event_pid,
    render_chrome_trace,
)
from repro.obs.report import render_trace, stitch_spans, trace_summary
from repro.obs.watch import logical_sink


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestTraceContext:
    def test_new_trace_id_is_short_hex_and_unique(self):
        ids = {tracectx.new_trace_id() for _ in range(32)}
        assert len(ids) == 32
        for tid in ids:
            assert len(tid) == 16
            int(tid, 16)  # hex or raise

    def test_trace_id_generation_never_touches_random(self):
        random.seed(7)
        before = random.getstate()
        tracectx.new_trace_id()
        tracectx.begin_trace()
        tracectx.env_value()
        assert random.getstate() == before
        numpy = pytest.importorskip("numpy")
        numpy.random.seed(7)
        np_before = numpy.random.get_state()[1].tobytes()
        tracectx.new_trace_id()
        assert numpy.random.get_state()[1].tobytes() == np_before

    def test_begin_trace_installs_then_reuses(self):
        first = tracectx.begin_trace()
        assert tracectx.current_trace_id() == first
        assert tracectx.begin_trace() == first

    def test_set_and_clear(self):
        tracectx.set_trace("cafe", parent="1-1")
        assert tracectx.current_trace_id() == "cafe"
        assert tracectx.current_parent() == "1-1"
        tracectx.clear_trace()
        assert tracectx.current_trace_id() is None
        assert tracectx.current_parent() is None

    def test_current_parent_prefers_open_span(self):
        obs.enable()
        tracectx.set_trace("cafe", parent="remote-parent")
        with obs.span("outer") as outer:
            assert tracectx.current_parent() == outer.span_id

    def test_wire_context_shapes(self):
        assert tracectx.wire_context() is None
        assert tracectx.wire_context(trace_id="t") == {"trace": "t"}
        assert tracectx.wire_context(trace_id="t", parent="p") == {
            "trace": "t",
            "parent": "p",
        }

    def test_env_value_round_trips_through_activation(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, tracectx.env_value("abcd", "9-3"))
        _activate_from_env()
        assert tracectx.current_trace_id() == "abcd"
        assert tracectx.current_parent() == "9-3"

    def test_adopted_restores_prior_context(self):
        tracectx.set_trace("outer-trace", parent="outer-parent")
        with tracectx.adopted({"trace": "inner", "parent": "p"}):
            assert tracectx.current_trace_id() == "inner"
            assert tracectx.current_parent() == "p"
        assert tracectx.current_trace_id() == "outer-trace"
        assert tracectx.current_parent() == "outer-parent"

    def test_adopted_none_is_a_noop(self):
        tracectx.set_trace("keep")
        with tracectx.adopted(None):
            assert tracectx.current_trace_id() == "keep"
        assert tracectx.current_trace_id() == "keep"


class TestTraceStampedSpans:
    def test_spans_carry_trace_only_when_set(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        obs.enable(sink_path=str(sink))
        with obs.span("untraced"):
            pass
        tracectx.set_trace("cafe")
        with obs.span("traced"):
            pass
        obs.flush()
        spans = {
            e["name"]: e
            for e in obs.load_events(str(sink))
            if e["kind"] == "span"
        }
        assert "trace" not in spans["untraced"]
        assert spans["traced"]["trace"] == "cafe"

    def test_root_span_adopts_remote_parent_nested_keeps_local(self):
        obs.enable()
        tracectx.set_trace("cafe", parent="0-99")
        with obs.span("root") as root:
            assert root.parent_id == "0-99"
            with obs.span("child") as child:
                assert child.parent_id == root.span_id

    def test_emit_span_event_defaults_to_state_trace(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        obs.enable(sink_path=str(sink))
        tracectx.set_trace("cafe")
        sid = obs.emit_span_event("cluster.campaign", ts=1.0, dur=2.0)
        assert sid
        obs.flush()
        (event,) = [
            e for e in obs.load_events(str(sink)) if e["kind"] == "span"
        ]
        assert event["id"] == sid
        assert event["trace"] == "cafe"
        assert event["dur"] == 2.0

    def test_new_span_id_reserves_without_opening(self):
        obs.enable()
        reserved = obs.new_span_id()
        assert reserved
        with obs.span("later") as span:
            # the reservation did not land on the stack
            assert span.parent_id is None
            assert span.span_id != reserved

    def test_disabled_trace_helpers_are_inert(self):
        assert obs.new_span_id() == ""
        assert obs.emit_span_event("x", ts=0.0, dur=0.0) is None


class TestEnvActivation:
    def test_max_bytes_env_installs_rotation_cap(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_SINK, "1")
        monkeypatch.setenv(obs.ENV_MAX_BYTES, "4096")
        _activate_from_env()
        from repro.obs.core import STATE

        assert STATE.max_sink_bytes == 4096

    def test_garbage_max_bytes_is_ignored(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_SINK, "1")
        monkeypatch.setenv(obs.ENV_MAX_BYTES, "lots")
        _activate_from_env()
        from repro.obs.core import STATE

        assert STATE.max_sink_bytes is None

    def test_trace_env_installs_without_sink(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_SINK, raising=False)
        monkeypatch.setenv(obs.ENV_TRACE, "feed:")
        _activate_from_env()
        assert not obs.enabled()
        assert tracectx.current_trace_id() == "feed"
        assert tracectx.current_parent() is None

    def test_trace_env_never_touches_random(self, monkeypatch):
        random.seed(11)
        before = random.getstate()
        monkeypatch.setenv(obs.ENV_TRACE, "feed:1-2")
        _activate_from_env()
        assert random.getstate() == before


class TestSinkRotation:
    def _fill(self, sink, cap, n=200):
        obs.enable(sink_path=str(sink), max_sink_bytes=cap)
        log = obs.get_logger("rot")
        for i in range(n):
            log.info("event", seq=i)
        obs.flush()

    def test_rotation_caps_live_file_and_keeps_one_generation(
        self, tmp_path
    ):
        sink = tmp_path / "s.jsonl"
        self._fill(sink, cap=2048)
        rotated = tmp_path / "s.jsonl.1"
        assert rotated.exists()
        assert sink.stat().st_size <= 2048
        assert rotated.stat().st_size <= 2048

    def test_rotated_lines_stay_whole(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        self._fill(sink, cap=1024)
        for path in (sink, tmp_path / "s.jsonl.1"):
            for line in path.read_text().splitlines():
                json.loads(line)

    def test_load_events_recovers_both_generations(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        self._fill(sink, cap=2048, n=120)
        events = obs.load_events([str(sink)])
        seqs = [
            e["fields"]["seq"]
            for e in events
            if e["kind"] == "log" and e["msg"] == "event"
        ]
        # the oldest events fell off (only one rotated generation is
        # kept) but the surviving stream is contiguous through the end
        assert seqs == list(range(min(seqs), 120))
        assert len(seqs) > 120 * len(str(sink)) // (2 * 2048)

    def test_counters_not_double_counted_across_generations(
        self, tmp_path
    ):
        sink = tmp_path / "s.jsonl"
        obs.enable(sink_path=str(sink), max_sink_bytes=600)
        for _ in range(10):
            obs.counter_add("rot.jobs")
            obs.flush()  # each flush writes a cumulative snapshot
        events = obs.load_events([str(sink)])
        assert {logical_sink(e["_src"]) for e in events} == {str(sink)}
        from repro.obs.report import merge_events

        merged = merge_events(events)
        # cumulative snapshots from both generations merge to the last
        # value per process, not the sum of snapshots
        assert merged["counters"]["rot.jobs"] == 10


class TestChromeExport:
    def _span(self, **over):
        base = {
            "kind": "span", "name": "campaign.job", "id": "41-2",
            "parent": "41-1", "ts": 10.0, "dur": 0.5,
            "status": "ok", "trace": "cafe", "fields": {"attempt": 0},
        }
        base.update(over)
        return base

    def test_event_pid_from_span_id_and_explicit_field(self):
        assert event_pid(self._span()) == 41
        assert event_pid({"kind": "log", "pid": 7}) == 7
        assert event_pid({"kind": "span", "id": "legacy"}) == 0

    def test_span_becomes_complete_event_in_microseconds(self):
        (out,) = chrome_trace_events([self._span()])
        assert out["ph"] == "X"
        assert out["ts"] == pytest.approx(10.0 * 1e6)
        assert out["dur"] == pytest.approx(0.5 * 1e6)
        assert out["pid"] == 41 and out["tid"] == 41
        assert out["args"]["trace"] == "cafe"
        assert out["args"]["parent"] == "41-1"
        assert out["args"]["attempt"] == 0

    def test_log_becomes_instant_and_metrics_become_counters(self):
        events = [
            {"kind": "log", "pid": 3, "ts": 1.0, "level": "warning",
             "msg": "slow disk", "fields": {"device": "sda"}},
            {"kind": "metrics", "pid": 3, "ts": 2.0,
             "name": "campaign.job",
             "values": {"bit_accuracy": 0.9, "exact_found": True,
                        "label": "zlib"}},
        ]
        out = chrome_trace_events(events)
        instant = next(e for e in out if e["ph"] == "i")
        assert instant["cat"] == "log.warning"
        counters = [e for e in out if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert names == {
            "campaign.job.bit_accuracy", "campaign.job.exact_found",
        }  # non-numeric values are dropped, bools cast

    def test_counter_snapshots_are_skipped_and_output_sorted(self):
        events = [
            self._span(ts=5.0),
            {"kind": "counters", "pid": 1, "ts": 1.0,
             "counters": {"jobs": 3}, "histograms": {}},
            {"kind": "log", "pid": 1, "ts": 2.0, "msg": "x"},
        ]
        out = chrome_trace_events(events)
        assert [e["ph"] for e in out] == ["i", "X"]

    def test_document_and_render_parse_back(self, tmp_path):
        doc = chrome_trace_document(
            chrome_trace_events([self._span()]), origin="s.jsonl"
        )
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["origin"] == "s.jsonl"
        parsed = json.loads(render_chrome_trace([self._span()]))
        assert len(parsed["traceEvents"]) == 1

    def test_profiler_events_pair_up_on_virtual_clock(self):
        from repro.exec.context import Profiler

        prof = Profiler()
        prof.mark("compress", "enter")
        prof.tick(100)
        prof.mark("fill_window", "enter")
        prof.tick(40)
        prof.mark("fill_window", "exit")
        prof.tick(10)
        prof.mark("compress", "exit")
        out = prof.chrome_trace_events(pid=5)
        assert [e["ph"] for e in out] == ["B", "B", "E", "E"]
        assert [e.get("name") for e in out] == [
            "compress", "fill_window", "fill_window", "compress",
        ]
        assert out[-1]["ts"] == 150.0
        assert all(e["pid"] == 5 for e in out)

    def test_unmatched_enter_is_closed_at_now(self):
        from repro.exec.context import Profiler

        prof = Profiler()
        prof.mark("compress", "enter")
        prof.tick(30)
        out = prof.chrome_trace_events()
        assert [e["ph"] for e in out] == ["B", "E"]
        assert out[-1]["ts"] == 30.0


class TestTraceSummary:
    def _campaign_events(self):
        # A miniature 2-worker cluster campaign: scheduler root span,
        # two worker job spans stitched via the wire trace context, a
        # merge span, plus the scheduler's queue telemetry snapshot.
        return [
            {"kind": "span", "id": "1-1", "parent": None,
             "name": "cluster.campaign", "dur": 10.0, "ts": 0.0,
             "trace": "cafe"},
            {"kind": "span", "id": "41-1", "parent": "1-1",
             "name": "campaign.job", "dur": 4.0, "ts": 1.0,
             "trace": "cafe"},
            {"kind": "span", "id": "42-1", "parent": "1-1",
             "name": "campaign.job", "dur": 3.0, "ts": 1.5,
             "trace": "cafe"},
            {"kind": "span", "id": "1-2", "parent": "1-1",
             "name": "store.merge", "dur": 0.5, "ts": 9.0,
             "trace": "cafe"},
            {"kind": "counters", "pid": 1, "ts": 10.0, "counters": {},
             "histograms": {
                 "cluster.lease_wait_seconds":
                     {"count": 2, "total": 1.2, "min": 0.4, "max": 0.8},
                 "cluster.backoff_seconds":
                     {"count": 1, "total": 2.0, "min": 2.0, "max": 2.0},
             }},
        ]

    def test_attribution_adds_up(self):
        summary = trace_summary(self._campaign_events())
        assert summary["trace_ids"] == ["cafe"]
        assert summary["root"]["name"] == "cluster.campaign"
        assert summary["wall_seconds"] == 10.0
        assert summary["queue_wait_seconds"] == pytest.approx(1.2)
        assert summary["compute_seconds"] == pytest.approx(7.0)
        assert summary["retry_backoff_seconds"] == pytest.approx(2.0)
        assert summary["merge_seconds"] == pytest.approx(0.5)
        assert summary["n_spans"] == 4
        assert summary["n_roots"] == 1
        assert summary["n_orphans"] == 0

    def test_cluster_root_preferred_over_local_run(self):
        events = self._campaign_events() + [
            {"kind": "span", "id": "9-1", "parent": None,
             "name": "campaign.run", "dur": 99.0, "ts": 0.0},
        ]
        summary = trace_summary(events)
        assert summary["root"]["name"] == "cluster.campaign"

    def test_stitch_reports_orphans(self):
        events = self._campaign_events()
        events[1] = dict(events[1], parent="ghost")
        stitched = stitch_spans(events)
        assert [e["id"] for e in stitched["orphans"]] == ["41-1"]
        assert trace_summary(events)["n_orphans"] == 1

    def test_render_trace_shows_tree_and_critical_path(self):
        text = render_trace(self._campaign_events())
        assert "trace: cafe" in text
        assert "## span tree" in text
        assert "## critical path" in text
        assert "cluster.campaign" in text
        # children indent beneath the scheduler root
        assert "\n  campaign.job" in text
        assert "queue-wait" in text
        assert "shard merge" in text
        # compute share: 7.0 of 10.0 wall
        assert "70.0%" in text

    def test_render_trace_without_spans_degrades(self):
        text = render_trace(
            [{"kind": "log", "pid": 1, "ts": 1.0, "msg": "x"}]
        )
        assert "no spans" in text


class TestLocalRunTrace:
    """``campaign run`` is a scheduler run on forked workers: the sink
    holds one connected tree rooted at the scheduler's
    ``cluster.campaign`` span, and each attempt is counted once."""

    def test_campaign_run_is_one_tree_with_exact_counters(self, tmp_path):
        from repro import cli
        from repro.campaign import ResultStore
        from repro.obs.report import merge_events

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "traced-run",
            "experiment": "lzw_recovery",
            "grid": {"size": [30, 40]},
            "max_retries": 2,
            "retry_backoff": 0.0,
            "inject_failures": {"count": 1, "attempts": 1, "mode": "crash"},
        }))
        sink = tmp_path / "obs.jsonl"
        out = tmp_path / "c"
        assert cli.main([
            "campaign", "run", str(spec), "--out", str(out),
            "--workers", "2", "--quiet", "--obs", str(sink),
        ]) == 0
        obs.reset()  # the CLI enabled obs in-process
        records = ResultStore(out).load_records()
        assert [r.ok for r in records.values()] == [True, True]
        events = obs.load_events(str(sink))

        summary = trace_summary(events)
        root = summary["root"]
        assert root["name"] == "cluster.campaign"
        assert (summary["n_roots"], summary["n_orphans"]) == (1, 0)
        assert len(summary["trace_ids"]) == 1
        spans = [e for e in events if e.get("kind") == "span"]
        names = [e["name"] for e in spans]
        assert names.count("cluster.campaign") == 1
        # The injected crash raises before its job span opens.
        assert names.count("campaign.job") == 2
        assert names.count("store.merge") == 1
        assert {
            e["parent"] for e in spans
            if e["name"] in ("campaign.job", "store.merge")
        } == {root["id"]}

        # Workers are forked after the scheduler has counted; a child
        # that kept the parent's counters would count them twice.
        counters = merge_events(events)["counters"]
        attempts = sum(r.attempts for r in records.values())
        assert attempts == 3
        assert counters["campaign.attempts"] == attempts
        assert counters["cluster.campaigns_submitted"] == 1
