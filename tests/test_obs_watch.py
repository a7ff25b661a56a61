"""Live sink following and the watch dashboard.

The follower's contract: only complete JSONL lines are delivered, a
torn tail is buffered until its newline arrives, garbage is counted
not raised, and a recreated sink restarts the offset.  The watch is a
pure renderer over :class:`WatchState`, so everything is assertable
without a terminal; the one integration test drives a real campaign
subprocess and polls with a deadline (no fixed sleeps).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import CampaignSpec, ResultStore, register_experiment
from repro.campaign.executor import run_attempt
from repro.campaign.spec import FaultInjection
from repro.cluster import ClusterScheduler
from repro.cluster.worker import finish_job
from repro.obs.watch import (
    SinkFollower,
    WatchState,
    render_watch,
    sparkline,
    watch_loop,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def _line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


class TestSparkline:
    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_is_flat(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▄▄▄"

    def test_monotone_series_rises(self):
        text = sparkline([0.0, 1.0, 2.0, 3.0])
        assert text[0] == "▁"
        assert text[-1] == "█"

    def test_window_keeps_the_tail(self):
        assert len(sparkline(list(range(100)), width=10)) == 10


class TestSinkFollower:
    def test_missing_file_polls_empty(self, tmp_path):
        follower = SinkFollower(tmp_path / "nope.jsonl")
        assert follower.poll() == []

    def test_delivers_each_event_once(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        sink.write_text(_line({"kind": "log", "msg": "a"}))
        follower = SinkFollower(sink)
        assert [e["msg"] for e in follower.poll()] == ["a"]
        assert follower.poll() == []
        with open(sink, "a") as fh:
            fh.write(_line({"kind": "log", "msg": "b"}))
        assert [e["msg"] for e in follower.poll()] == ["b"]

    def test_partial_line_is_buffered_until_complete(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        full = _line({"kind": "log", "msg": "torn"})
        sink.write_text(full[:10])  # mid-write
        follower = SinkFollower(sink)
        assert follower.poll() == []
        with open(sink, "a") as fh:
            fh.write(full[10:])
        assert [e["msg"] for e in follower.poll()] == ["torn"]
        assert follower.corrupt == 0

    def test_corrupt_complete_lines_are_counted_and_skipped(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        sink.write_text(
            "{not json}\n"
            + _line({"kind": "log", "msg": "ok"})
            + _line([1, 2, 3])  # valid JSON, wrong shape
        )
        follower = SinkFollower(sink)
        events = follower.poll()
        assert [e["msg"] for e in events] == ["ok"]
        assert follower.corrupt == 2

    def test_truncated_sink_restarts_from_zero(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        sink.write_text(_line({"kind": "log", "msg": "a much longer first line"}))
        follower = SinkFollower(sink)
        follower.poll()
        sink.write_text(_line({"kind": "log", "msg": "new"}))
        assert [e["msg"] for e in follower.poll()] == ["new"]

    def test_rotation_delivers_every_event_exactly_once(self, tmp_path):
        # The size-cap rotation (sink -> sink.1) must look to a live
        # follower like a seamless stream: the rotated file's unread
        # tail is drained before the fresh file is read from zero.
        sink = tmp_path / "s.jsonl"
        sink.write_text(_line({"kind": "log", "msg": "a"}))
        follower = SinkFollower(sink)
        assert [e["msg"] for e in follower.poll()] == ["a"]
        # more lines land, then the writer rotates before the next poll
        with open(sink, "a") as fh:
            fh.write(_line({"kind": "log", "msg": "b"}))
        os.replace(sink, str(sink) + ".1")
        sink.write_text(_line({"kind": "log", "msg": "c"}))
        assert [e["msg"] for e in follower.poll()] == ["b", "c"]
        assert follower.poll() == []

    def test_rotation_with_fully_read_generation(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        sink.write_text(_line({"kind": "log", "msg": "a"}))
        follower = SinkFollower(sink)
        follower.poll()
        os.replace(sink, str(sink) + ".1")
        sink.write_text(_line({"kind": "log", "msg": "fresh"}))
        assert [e["msg"] for e in follower.poll()] == ["fresh"]

    def test_multi_follower_skips_rotated_twin(self, tmp_path):
        # Following 's.jsonl*' must not deliver the rotated generation
        # twice: the base follower already drains 's.jsonl.1'.
        from repro.obs.watch import MultiSinkFollower

        sink = tmp_path / "s.jsonl"
        (tmp_path / "s.jsonl.1").write_text(
            _line({"kind": "log", "msg": "old"})
        )
        sink.write_text(_line({"kind": "log", "msg": "new"}))
        follower = MultiSinkFollower([str(tmp_path / "s.jsonl*")])
        events = follower.poll()
        msgs = sorted(e["msg"] for e in events)
        assert msgs == ["new", "old"]
        # both generations carry the logical sink as their source
        assert {e["_src"] for e in events} == {str(sink)}
        assert follower.poll() == []


class TestWatchState:
    def test_counters_merge_last_snapshot_per_pid(self):
        state = WatchState()
        state.ingest(
            [
                {"kind": "counters", "pid": 1,
                 "counters": {"campaign.ok": 1}, "histograms": {}},
                {"kind": "counters", "pid": 1,
                 "counters": {"campaign.ok": 3}, "histograms": {}},
                {"kind": "counters", "pid": 2,
                 "counters": {"campaign.ok": 2}, "histograms": {}},
            ]
        )
        assert state.counters() == {"campaign.ok": 5}
        assert state.pids == {1, 2}

    def test_histograms_fold_across_pids(self):
        state = WatchState()
        payload = {"count": 2, "total": 4.0, "min": 1.0, "max": 3.0}
        state.ingest(
            [
                {"kind": "counters", "pid": 1, "counters": {},
                 "histograms": {"h": dict(payload)}},
                {"kind": "counters", "pid": 2, "counters": {},
                 "histograms": {"h": dict(payload)}},
            ]
        )
        merged = state.histograms()["h"]
        assert merged.count == 4
        assert merged.mean == 2.0

    def test_metrics_build_rolling_series(self):
        state = WatchState(rolling_window=3)
        for i in range(5):
            state.ingest(
                [{"kind": "metrics", "name": "campaign.job",
                  "values": {"bit_accuracy": i / 10}}]
            )
        series = state.series["campaign.job.bit_accuracy"]
        assert list(series) == [0.2, 0.3, 0.4]  # window of 3

    def test_campaign_start_log_sets_totals(self):
        state = WatchState()
        state.ingest(
            [{"kind": "log", "level": "info", "msg": "campaign started",
              "fields": {"campaign": "sweep", "jobs": 12}}]
        )
        assert state.total_jobs == 12
        assert state.campaign == "sweep"

    def test_job_progress_derives_retries(self):
        state = WatchState()
        state.ingest(
            [{"kind": "counters", "pid": 1, "histograms": {},
              "counters": {"campaign.ok": 3, "campaign.failed": 1,
                           "campaign.attempts": 6}}]
        )
        progress = state.job_progress()
        assert progress == {
            "done": 3, "failed": 1, "retried": 2,
            "attempts": 6, "total": None,
        }

    def test_warnings_dedupe_by_key_across_pids(self):
        state = WatchState()
        warn = {"kind": "log", "level": "warning", "msg": "slow disk",
                "fields": {"warn_key": "disk"}}
        state.ingest([
            {**warn, "pid": 1}, {**warn, "pid": 2}, {**warn, "pid": 1},
        ])
        (row,) = state.warnings.values()
        assert row["count"] == 3
        assert row["pids"] == {1, 2}


@register_experiment("watch_echo")
def _watch_echo(params: dict, seed: int) -> dict:
    return {"value": params.get("x", 0)}


class TestSchedulerSink:
    """Progress over a sink that a scheduler run wrote: one job fails
    its first attempt (one retry), then its second attempt's worker
    disconnects mid-job (a terminal crash charged by the scheduler)."""

    def test_progress_counts_retry_and_terminal_crash(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        spec = CampaignSpec(
            name="watched",
            experiment="watch_echo",
            grid={"x": [1, 2, 3]},
            max_retries=1,
            retry_backoff=0.0,
            inject_failures=FaultInjection(count=1, attempts=1),
        )
        scheduler = ClusterScheduler()
        scheduler.register_worker("w")
        scheduler.submit(spec, tmp_path / "c")
        while scheduler.active():
            job = scheduler.request_lease("w")
            if job["payload"]["attempt"] == 1:
                scheduler.disconnect_worker("w")
                scheduler.register_worker("w")
                continue
            outcome = run_attempt(job["payload"])
            shard = ResultStore(job["store_root"]).shard_store("w")
            scheduler.handle_result("w", finish_job(shard, "w", job, outcome))
        obs.flush()

        state = WatchState()
        state.ingest(obs.load_events(str(sink)))
        assert state.job_progress() == {
            "done": 2, "failed": 1, "retried": 1, "attempts": 4, "total": 3,
        }
        assert "jobs [watched]: 2/3 done  1 failed  1 retried" in render_watch(
            state
        )
        statuses = sorted(
            r.status for r in ResultStore(tmp_path / "c").load_records().values()
        )
        assert statuses == ["crashed", "ok", "ok"]


class TestRenderWatch:
    def test_renders_every_populated_section(self):
        state = WatchState()
        state.ingest(
            [
                {"kind": "log", "level": "info", "msg": "campaign started",
                 "ts": 1.0, "pid": 1,
                 "fields": {"campaign": "demo", "jobs": 2}},
                {"kind": "metrics", "name": "campaign.job", "ts": 2.0,
                 "pid": 1, "values": {"bit_accuracy": 0.97}},
                {"kind": "counters", "pid": 1, "ts": 3.0,
                 "counters": {"campaign.ok": 2, "campaign.attempts": 2},
                 "histograms": {"campaign.job_seconds":
                                {"count": 2, "total": 1.0,
                                 "min": 0.4, "max": 0.6}}},
                {"kind": "log", "level": "warning", "msg": "retried job",
                 "ts": 4.0, "pid": 1, "fields": {"warn_key": "retry"}},
            ]
        )
        text = render_watch(state, sink="s.jsonl")
        assert "repro obs watch — s.jsonl" in text
        assert "jobs [demo]: 2/2 done  0 failed  0 retried" in text
        assert "## rolling metrics" in text
        assert "campaign.job.bit_accuracy" in text
        assert "## counters" in text
        assert "## histograms" in text
        assert "[x1, 1 pid] retried job" in text

    def test_empty_state_renders_header_only(self):
        text = render_watch(WatchState())
        assert "events 0" in text
        assert "##" not in text

    def test_watch_loop_once_renders_one_frame(self, tmp_path):
        sink = tmp_path / "s.jsonl"
        sink.write_text(_line({"kind": "log", "msg": "x", "pid": 9}))
        frames = []
        state = watch_loop(str(sink), emit=frames.append, once=True)
        assert len(frames) == 1
        assert state.n_events == 1
        assert "\x1b" not in frames[0]  # --once never clears the screen


class TestWatchIntegration:
    def test_watch_sees_a_live_campaign_through_to_done(self, tmp_path):
        """Poll a real `campaign run --obs` subprocess with a deadline
        and assert the dashboard reaches <total>/<total> done."""
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "watch-int",
                    "experiment": "gadget_leakage",
                    "grid": {"target": ["zlib", "lzw"], "size": [40]},
                }
            )
        )
        sink = tmp_path / "obs.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(spec), "--out", str(tmp_path / "run"),
                "--obs", str(sink), "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        follower = SinkFollower(sink)
        state = WatchState()
        deadline = time.monotonic() + 120.0
        try:
            while time.monotonic() < deadline:
                state.ingest(follower.poll())
                progress = state.job_progress()
                if (
                    state.total_jobs is not None
                    and progress["done"] >= state.total_jobs
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail(
                    f"watch never saw completion; stderr: "
                    f"{proc.communicate()[1]!r}"
                )
        finally:
            proc.wait(timeout=60)

        assert state.total_jobs == 2
        assert state.campaign == "watch-int"
        text = render_watch(state, sink=str(sink))
        assert "jobs [watch-int]: 2/2 done" in text
        assert "campaign.job.bit_accuracy" in text
        assert follower.corrupt == 0
