"""Unit tests for repro.obs: state machine, spans, sinks, reports.

The contract under test is the tentpole's: disabled observability is a
no-op (and cheap), enabled observability records counters, histograms,
nested spans and logs into the ring and the JSONL sink, and the report
renderer reconstructs it all — including multi-process counter merging.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs.core import STATE, Histogram, ObsState


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.reset()
    yield
    obs.reset()


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_disabled_records_nothing(self):
        with obs.span("x", a=1):
            obs.counter_add("c")
            obs.observe("h", 1.0)
            obs.log("info", "hello")
        assert obs.counters_snapshot() == {}
        assert obs.histograms_snapshot() == {}
        assert obs.recent() == []

    def test_disabled_span_is_the_shared_null_span(self):
        from repro.obs.core import NULL_SPAN

        assert obs.span("a") is NULL_SPAN
        assert obs.span("b", k=1) is NULL_SPAN
        # note() must be callable on it (code annotates unconditionally)
        obs.span("c").note(extra=2)

    def test_logger_silent_when_disabled(self, capsys):
        log = obs.get_logger("test")
        log.info("nothing", x=1)
        log.error("still nothing")
        assert capsys.readouterr().out == ""
        assert obs.recent() == []


class TestCountersAndHistograms:
    def test_counter_accumulates(self):
        obs.enable()
        obs.counter_add("jobs")
        obs.counter_add("jobs", 4)
        assert obs.counters_snapshot() == {"jobs": 5}

    def test_histogram_summary(self):
        obs.enable()
        for v in (1.0, 3.0, 2.0):
            obs.observe("lat", v)
        h = obs.histograms_snapshot()["lat"]
        assert h["count"] == 3
        assert h["min"] == 1.0
        assert h["max"] == 3.0
        assert h["mean"] == 2.0

    def test_histogram_merge_dict(self):
        h = Histogram()
        h.observe(2.0)
        h.merge_dict({"count": 2, "total": 10.0, "min": 1.0, "max": 9.0})
        assert h.count == 3
        assert h.total == 12.0
        assert h.minimum == 1.0
        assert h.maximum == 9.0
        h.merge_dict({"count": 0})  # empty payloads are ignored
        assert h.count == 3

    def test_thread_safety_of_counters(self):
        obs.enable()

        def work():
            for _ in range(1000):
                obs.counter_add("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert obs.counters_snapshot()["n"] == 4000


class TestSpans:
    def test_span_records_duration_and_fields(self):
        obs.enable()
        with obs.span("outer", key="v"):
            pass
        (event,) = [e for e in obs.recent() if e["kind"] == "span"]
        assert event["name"] == "outer"
        assert event["fields"] == {"key": "v"}
        assert event["dur"] >= 0.0
        assert event["status"] == "ok"
        assert event["parent"] is None

    def test_spans_nest(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        spans = {e["name"]: e for e in obs.recent() if e["kind"] == "span"}
        assert spans["inner"]["parent"] == outer.span_id
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["depth"] == 0

    def test_span_marks_errors(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("bad"):
                raise ValueError("boom")
        (event,) = [e for e in obs.recent() if e["kind"] == "span"]
        assert event["status"] == "error"

    def test_note_annotates_mid_span(self):
        obs.enable()
        with obs.span("annotated") as sp:
            sp.note(result=42)
        (event,) = [e for e in obs.recent() if e["kind"] == "span"]
        assert event["fields"] == {"result": 42}


class TestRingAndSink:
    def test_ring_is_bounded(self):
        obs.enable(ring_size=8)
        for i in range(20):
            obs.log("info", f"line {i}")
        events = obs.recent()
        assert len(events) == 8
        assert events[-1]["msg"] == "line 19"

    def test_sink_is_jsonl(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        obs.log("info", "hello", n=1)
        with obs.span("s"):
            pass
        obs.counter_add("c", 2)
        obs.flush()
        obs.disable()
        lines = [json.loads(x) for x in sink.read_text().splitlines()]
        kinds = [e["kind"] for e in lines]
        assert "log" in kinds and "span" in kinds and "counters" in kinds
        snap = [e for e in lines if e["kind"] == "counters"][-1]
        assert snap["counters"] == {"c": 2}

    def test_load_events_skips_torn_lines(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        sink.write_text(
            '{"kind": "log", "ts": 1, "level": "info", "msg": "ok"}\n'
            '{"kind": "log", "ts": 2, "lev'  # torn mid-write
        )
        events = obs.load_events(str(sink))
        assert len(events) == 1

    def _capped_writers(self, sink, n):
        writers = [ObsState() for _ in range(n)]
        for writer in writers:
            writer.enable(sink_path=str(sink), max_sink_bytes=2000)
        return writers

    def _seqs(self, sink):
        lines = []
        for path in (f"{sink}.1", str(sink)):
            with open(path, encoding="utf-8") as handle:
                lines += [json.loads(x)["seq"] for x in handle]
        return lines

    def test_writers_sharing_a_capped_sink_rotate_as_one(self, tmp_path):
        """Worker processes share one sink: the cap counts every
        writer's bytes, and a writer whose sink another writer rotated
        follows the new file instead of appending to ``.1``."""
        events = [
            {"kind": "log", "msg": "x" * 35, "seq": f"{i:03d}"}
            for i in range(60)
        ]
        assert len(json.dumps(events[0], sort_keys=True)) + 1 == 76
        alone = tmp_path / "alone.jsonl"
        shared = tmp_path / "shared.jsonl"
        (single,) = self._capped_writers(alone, 1)
        pair = self._capped_writers(shared, 2)
        for i, event in enumerate(events):
            single.emit(event)
            pair[i % 2].emit(event)
        for writer in (single, *pair):
            writer.disable()
        kept = [f"{i:03d}" for i in range(26, 60)]
        assert self._seqs(alone) == kept
        assert self._seqs(shared) == kept

    def test_processes_sharing_a_capped_sink_stay_near_the_cap(self, tmp_path):
        """Three processes (more than this suite assumes cores) hold one
        capped sink open and append to it at once.  Together they write
        more than the cap, each alone less.  A writer may append one line
        after its check and before another writer's, so neither
        generation may pass the cap by more than one line per writer,
        and every line stays whole."""
        sink, cap, writers = tmp_path / "s.jsonl", 3000, 3
        # Each writer opens the sink with its first event, then waits
        # for ``start`` so that the rest of the appends interleave.
        script = (
            "import sys, time\n"
            "from repro.obs.core import ObsState\n"
            "state = ObsState()\n"
            f"state.enable(sink_path={str(sink)!r}, max_sink_bytes={cap})\n"
            "for i in range(40):\n"
            "    state.emit({'kind': 'log', 'msg': sys.argv[1], 'seq': i})\n"
            "    if i == 0:\n"
            "        time.sleep(max(0.0, float(sys.argv[2]) - time.time()))\n"
            "state.disable()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        start = str(time.time() + 2.0)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, f"w{k}", start], env=env
            )
            for k in range(writers)
        ]
        assert [p.wait(timeout=60) for p in procs] == [0] * writers
        longest = len(json.dumps(
            {"kind": "log", "msg": "w0", "seq": 39}, sort_keys=True
        )) + 1
        assert 40 * longest < cap < writers * 40 * longest
        for path in (sink, tmp_path / "s.jsonl.1"):
            assert path.stat().st_size <= cap + writers * longest
            for line in path.read_text().splitlines():
                json.loads(line)

    def test_level_filters_logs(self):
        obs.enable(level="warning")
        obs.log("debug", "dropped")
        obs.log("info", "dropped too")
        obs.log("error", "kept")
        assert [e["msg"] for e in obs.recent() if e["kind"] == "log"] == [
            "kept"
        ]


class TestWarnOnce:
    def test_emits_once_per_key(self):
        obs.enable()
        assert obs.warn_once("k", "message") is True
        assert obs.warn_once("k", "message") is False
        logs = [e for e in obs.recent() if e["kind"] == "log"]
        assert len(logs) == 1

    def test_dedupes_even_while_disabled(self):
        assert obs.warn_once("k", "mirror me") is True
        assert obs.warn_once("k", "mirror me") is False
        assert obs.recent() == []  # nothing recorded, only deduped


class TestEnvActivation:
    def test_unset_or_zero_stays_off(self, monkeypatch):
        from repro.obs.core import _activate_from_env

        for raw in ("", "0", "false"):
            monkeypatch.setenv(obs.ENV_SINK, raw)
            _activate_from_env()
            assert not obs.enabled()

    def test_one_enables_ring_only(self, monkeypatch):
        from repro.obs.core import _activate_from_env

        monkeypatch.setenv(obs.ENV_SINK, "1")
        _activate_from_env()
        assert obs.enabled()
        assert STATE.sink_path is None

    def test_path_enables_sink(self, monkeypatch, tmp_path):
        from repro.obs.core import _activate_from_env

        sink = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.ENV_SINK, str(sink))
        monkeypatch.setenv(obs.ENV_LEVEL, "debug")
        _activate_from_env()
        assert obs.enabled()
        assert STATE.sink_path == str(sink)
        obs.log("debug", "visible at debug level")
        assert obs.recent()[-1]["msg"] == "visible at debug level"


class TestReportRendering:
    def _sinked_events(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        with obs.span("root", run=1):
            with obs.span("child"):
                obs.counter_add("widgets", 7)
                obs.observe("widget.seconds", 0.25)
        obs.log("info", "made widgets")
        obs.flush()
        obs.disable()
        return obs.load_events(str(sink))

    def test_report_renders_counters_spans_and_tree(self, tmp_path):
        text = obs.render_report(self._sinked_events(tmp_path))
        assert "widgets" in text
        assert "widget.seconds" in text
        assert "## spans" in text
        assert "root" in text and "child" in text
        # the tree indents the child under its root
        assert "\n  child" in text

    def test_merge_sums_counters_across_pids(self):
        events = [
            {"kind": "counters", "pid": 1, "counters": {"c": 2},
             "histograms": {}},
            {"kind": "counters", "pid": 1, "counters": {"c": 5},
             "histograms": {}},  # later snapshot from pid 1 wins
            {"kind": "counters", "pid": 2, "counters": {"c": 3},
             "histograms": {}},
        ]
        merged = obs.merge_events(events)
        assert merged["counters"] == {"c": 8}

    def test_tail_formats_each_kind(self, tmp_path):
        text = obs.render_tail(self._sinked_events(tmp_path), n=50)
        assert "span" in text
        assert "made widgets" in text
        assert "counters" in text

    def test_tail_n_zero_prints_no_event_lines(self, tmp_path, capsys):
        from repro.cli import main

        events = self._sinked_events(tmp_path)
        assert obs.render_tail(events, n=0) == ""
        assert obs.render_tail(events, n=1) == obs.format_event(events[-1])
        sink = str(tmp_path / "obs.jsonl")
        assert main(["obs", "tail", sink, "-n", "0"]) == 0
        assert capsys.readouterr().out == ""
        # --follow: the first poll shows the last n events, here none
        assert main(["obs", "tail", sink, "-n", "0", "--follow",
                     "--duration", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["obs", "tail", sink, "-n", "1", "--follow",
                     "--duration", "0"]) == 0
        assert capsys.readouterr().out == obs.format_event(events[-1]) + "\n"

    def test_tail_rejects_a_negative_n(self, tmp_path, capsys):
        from repro.cli import main

        self._sinked_events(tmp_path)
        sink = str(tmp_path / "obs.jsonl")
        for extra in ([], ["--follow", "--duration", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(["obs", "tail", sink, "-n", "-1", *extra])
            assert exc.value.code == 2
            assert "non-negative" in capsys.readouterr().err

    def test_empty_inputs_render_placeholders(self):
        assert "(no events)" in obs.render_tail([])
        assert "(no spans)" in obs.render_span_tree([])
        assert "no counters" in obs.render_report([])
