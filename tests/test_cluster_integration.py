"""End-to-end cluster runs with real worker subprocesses.

Two drills, both deadline-polled (no fixed sleeps):

* the one-shot ``run_cluster`` path with a worker SIGKILLed mid-run —
  every job must still complete and the merged store must be
  digest-identical to a single-host run of the same spec;
* service mode — a ``cluster serve`` scheduler accepting a second
  campaign while the first drains through the same worker fleet, with
  ``cluster status`` reflecting both.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli, obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    discover_sinks,
    metrics_digest,
    register_experiment,
)
from repro.campaign.spec import FaultInjection
from repro.cluster import run_cluster
from repro.obs import tracectx
from repro.obs.report import trace_summary

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(autouse=True)
def worker_pythonpath(monkeypatch):
    """Worker subprocesses import repro via PYTHONPATH."""
    monkeypatch.setenv("PYTHONPATH", str(REPO / "src"))


def drill_spec(name="int-drill"):
    # Importable by worker subprocesses, fast, with injected failures
    # so the retry plane is exercised too.
    return CampaignSpec(
        name=name,
        experiment="lzw_recovery",
        grid={"size": [30, 40, 50]},
        trials=2,
        max_retries=2,
        retry_backoff=0.0,
        inject_failures=FaultInjection(count=2, attempts=1),
    )


class TestKillDrill:
    def test_two_workers_one_killed_digest_matches_single_host(
        self, tmp_path
    ):
        """The acceptance drill: 2 workers, w0 SIGKILLed mid-run; all
        jobs complete and the metrics digest equals the single-host
        run's — crash recovery must not change a single metric byte.

        Run as ``cluster run --obs-shards --obs <store>/obs.jsonl``: the
        scheduler's sink and the per-worker shard sinks under the store
        must stitch into one trace tree and export to Chrome Trace."""
        root = tmp_path / "cluster"
        obs.enable(sink_path=str(root / "obs.jsonl"))
        lines: list[str] = []
        result = run_cluster(
            drill_spec(),
            root,
            workers=2,
            lease_seconds=10.0,
            heartbeat_seconds=0.3,
            obs_shards=True,
            obs_sink=str(root / "obs.jsonl"),
            drill_kill_worker=2,
            on_event=lines.append,
            deadline_seconds=120.0,
        )
        obs.flush()
        obs.reset()
        assert result["state"] == "done"
        # The SIGKILL lands while w0 holds a lease, which goes back.
        assert "worker w0 disconnected (1 leases released)" in lines, lines
        assert result["counts"]["ok"] == 6
        assert result["counts"].get("crashed", 0) == 0
        assert result["counts"].get("failed", 0) == 0

        cluster_store = ResultStore(tmp_path / "cluster")
        records = cluster_store.load_records()
        assert len(records) == 6
        assert all(record.ok for record in records.values())
        # The kill and the injected failures left retry fingerprints in
        # the wall-clock fields only.
        assert max(record.attempts for record in records.values()) >= 2

        single_store = ResultStore(tmp_path / "single")
        single = CampaignRunner(drill_spec(), single_store).run()
        assert single.counts == {"ok": 6}
        assert metrics_digest(records) == metrics_digest(
            single_store.load_records()
        )

        sinks = discover_sinks(root)
        assert len(sinks) == 3  # the scheduler's sink and two shards
        summary = trace_summary(obs.load_events(sinks))
        assert summary["root"] and summary["root"]["name"] == "cluster.campaign"
        assert summary["n_orphans"] == 0
        assert len(summary["trace_ids"]) == 1
        assert summary["compute_seconds"] > 0.0

        trace_json = tmp_path / "trace.json"
        assert cli.main(
            ["obs", "export", str(root / "obs.jsonl"),
             str(root / "shard-*" / "obs.jsonl"),
             "--format", "chrome-trace", "--out", str(trace_json)]
        ) == 0
        doc = json.loads(trace_json.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"cluster.campaign", "campaign.job"} <= names


def popen_repro(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *argv],
        env=env,
        text=True,
        **kwargs,
    )


def run_repro(*argv, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestServiceMode:
    def test_malformed_submitted_spec_gets_an_error_reply(self, tmp_path):
        from repro.cluster import control_request, parse_endpoint

        serve = popen_repro(
            "cluster", "serve", "--listen", "tcp:127.0.0.1:0",
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            line = serve.stdout.readline()
            assert "serving on " in line, line
            endpoint = parse_endpoint(line.strip().rsplit("serving on ", 1)[1])
            for spec, message in (
                ([], "JSON object"),
                ({"name": "a", "experiment": "lzw_recovery", "fixed": [1]},
                 "'fixed' must be an object"),
            ):
                reply = control_request(
                    endpoint,
                    {"type": "submit", "spec": spec, "store": str(tmp_path / "out")},
                    timeout=10.0,
                )
                assert reply["type"] == "error" and message in reply["error"], reply
            assert control_request(endpoint, {"type": "shutdown"})["type"] == "ok"
            assert serve.wait(timeout=30) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait(timeout=10)
            serve.stdout.close()

    def test_serve_accepts_second_campaign_while_first_drains(
        self, tmp_path
    ):
        spec_paths = []
        for index in (1, 2):
            spec = dict(
                name=f"svc{index}",
                experiment="lzw_recovery",
                grid={"size": [30, 40]},
                trials=2,
            )
            path = tmp_path / f"spec{index}.json"
            path.write_text(json.dumps(spec))
            spec_paths.append(path)

        serve = popen_repro(
            "cluster", "serve", "--listen", "tcp:127.0.0.1:0",
            "--heartbeat-seconds", "0.3", "--lease-seconds", "10",
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        workers = []
        try:
            line = serve.stdout.readline()
            assert "serving on " in line, line
            endpoint = line.strip().rsplit("serving on ", 1)[1]

            workers = [
                popen_repro(
                    "cluster", "worker", "--connect", endpoint,
                    "--worker-id", f"svc-w{i}", "--quiet",
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for i in range(2)
            ]

            # Submit both campaigns back to back: the second queues
            # while the first is still draining through the fleet.
            for index, path in enumerate(spec_paths, start=1):
                proc = run_repro(
                    "cluster", "submit", str(path),
                    "--connect", endpoint,
                    "--out", str(tmp_path / f"out{index}"),
                )
                assert proc.returncode == 0, proc.stderr
                assert f"svc{index}" in proc.stdout

            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                proc = run_repro(
                    "cluster", "status", "--connect", endpoint, "--json"
                )
                assert proc.returncode == 0, proc.stderr
                status = json.loads(proc.stdout)
                names = [c["name"] for c in status["campaigns"]]
                assert names == ["svc1", "svc2"]  # both visible at once
                if all(
                    c["state"] == "done" for c in status["campaigns"]
                ):
                    break
                time.sleep(0.2)
            else:
                pytest.fail(f"campaigns never drained: {status}")

            assert status["campaigns"][0]["counts"] == {"ok": 4}
            assert status["campaigns"][1]["counts"] == {"ok": 4}
            connected = [
                w for w in status["workers"] if w["connected"]
            ]
            assert len(connected) == 2

            proc = run_repro("cluster", "shutdown", "--connect", endpoint)
            assert proc.returncode == 0, proc.stderr
            assert serve.wait(timeout=30) == 0
            for worker in workers:
                assert worker.wait(timeout=30) == 0
        finally:
            for proc in [serve, *workers]:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            serve.stdout.close()

        for index in (1, 2):
            store = ResultStore(tmp_path / f"out{index}")
            records = store.load_records()
            assert len(records) == 4
            assert all(record.ok for record in records.values())
            assert store.load_manifest()["outcomes"]["ok"] == 4


class TestInterrupt:
    def test_sigint_exits_130_and_resume_matches_an_uninterrupted_run(
        self, tmp_path
    ):
        """Ctrl-C on a live ``campaign run --workers 2``: exit 130 with
        the resume hint, no forked worker left behind, and ``campaign
        resume`` finishes with the records of an uninterrupted run."""
        spec = {
            "name": "sigint", "experiment": "lzw_recovery",
            "grid": {"size": [4000]}, "trials": 60, "base_seed": 5,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        store = ResultStore(out)
        run = popen_repro(
            "campaign", "run", str(spec_path), "--out", str(out),
            "--workers", "2", "--quiet",
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not store.completed_ids(include_shards=True):
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            run.send_signal(signal.SIGINT)
            _, err = run.communicate(timeout=60)
        finally:
            if run.poll() is None:
                os.killpg(run.pid, signal.SIGKILL)
                run.wait(timeout=10)
            run.stderr.close()
        assert run.returncode == 130, err
        assert f"continue with `python -m repro campaign resume {out}`" in err
        assert "Traceback" not in err
        # The workers share the run's process group; none outlived it.
        with pytest.raises(ProcessLookupError):
            os.killpg(run.pid, 0)
        assert 0 < len(store.completed_ids(include_shards=True)) < 60

        resumed = run_repro(
            "campaign", "resume", str(out), "--workers", "2", "--quiet"
        )
        assert resumed.returncode == 0, resumed.stderr
        records = store.load_records()
        assert len(records) == 60 and all(r.ok for r in records.values())
        assert store.load_manifest()["outcomes"]["ok"] == 60
        reference = ResultStore(tmp_path / "reference")
        CampaignRunner(CampaignSpec.from_dict(spec), reference).run()
        assert metrics_digest(records) == metrics_digest(
            reference.load_records()
        )


class TestTraceDrill:
    def test_kill_drill_yields_one_connected_trace_tree(self, tmp_path):
        """The tracing acceptance drill: 2 real workers sharing one obs
        sink, one SIGKILLed mid-run — scheduler, workers, and shard
        store must still stitch into a single trace tree rooted at the
        scheduler's campaign span, with zero orphans, and the merged
        events must export to valid Chrome Trace JSON."""
        from repro.obs.export import event_pid, render_chrome_trace

        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        result = run_cluster(
            drill_spec(name="trace-drill"),
            tmp_path / "cluster",
            workers=2,
            lease_seconds=10.0,
            heartbeat_seconds=0.3,
            drill_kill_worker=2,
            deadline_seconds=120.0,
            obs_sink=str(sink),
        )
        obs.flush()
        obs.reset()
        assert result["state"] == "done"
        assert result["counts"]["ok"] == 6

        events = obs.load_events([str(sink)])
        summary = trace_summary(events)
        assert summary["root"]["name"] == "cluster.campaign"
        assert summary["n_orphans"] == 0
        assert len(summary["trace_ids"]) == 1
        assert summary["merge_seconds"] > 0.0

        job_spans = [
            e for e in events
            if e.get("kind") == "span" and e.get("name") == "campaign.job"
        ]
        assert job_spans
        # every job span parents directly to the scheduler's campaign
        # span, even though it was emitted in another process
        assert {s["parent"] for s in job_spans} == {summary["root"]["id"]}
        assert {s.get("trace") for s in job_spans} == {
            summary["trace_ids"][0]
        }
        # worker spans carry worker pids, distinct from the scheduler's
        scheduler_pid = event_pid(
            next(e for e in events if e.get("name") == "cluster.campaign")
        )
        assert all(event_pid(s) != scheduler_pid for s in job_spans)

        doc = json.loads(render_chrome_trace(events, origin=str(sink)))
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"cluster.campaign", "campaign.job", "store.merge"} <= names


@register_experiment("fleet_env_probe")
def _env_probe(params: dict, seed: int) -> dict:
    """What a worker process sees of the obs environment variables."""
    return {
        "env_trace": int(obs.ENV_TRACE in os.environ),
        "env_sink": int(obs.ENV_SINK in os.environ),
    }


def bench_spec() -> CampaignSpec:
    """The 144-job campaign of the campaign benchmarks: noisy LZW
    recovery over three sizes, four injected one-off failures."""
    return CampaignSpec.from_dict({
        "name": "bench",
        "experiment": "lzw_recovery",
        "grid": {"noise": [0.0, 0.01], "size": [150, 300, 600]},
        "fixed": {"input_kind": "random"},
        "trials": 24,
        "base_seed": 11,
        "timeout_seconds": 120,
        "max_retries": 2,
        "retry_backoff": 0.05,
        "inject_failures": {"count": 4, "attempts": 1, "mode": "exception"},
    })


class TestForkedFleet:
    """``run_cluster`` forks its workers from the scheduler process;
    each must start as a fresh worker process would."""

    def test_counters_sum_once_per_process_and_jobs_parent_to_campaign(
        self, tmp_path
    ):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        result = run_cluster(
            bench_spec(), tmp_path / "bench", workers=2,
            obs_sink=str(sink), deadline_seconds=300.0,
        )
        obs.flush()
        obs.reset()
        assert result["counts"]["ok"] == 144
        assert result["retries"] == 4

        events = obs.load_events([str(sink)])
        counters = obs.merge_events(events)["counters"]
        # Summed over the scheduler's and both workers' pids: a counter
        # the scheduler held when it forked is counted once.
        assert counters["campaign.attempts"] == 148
        assert counters["campaign.retries"] == 4
        assert counters["cluster.campaigns_submitted"] == 1
        assert counters["cluster.worker_jobs"] == 148

        summary = trace_summary(events)
        assert summary["root"]["name"] == "cluster.campaign"
        assert summary["n_orphans"] == 0
        job_spans = [
            e for e in events
            if e.get("kind") == "span" and e.get("name") == "campaign.job"
        ]
        assert len(job_spans) >= 144
        assert {s["parent"] for s in job_spans} == {summary["root"]["id"]}
        assert len({s["id"].split("-")[0] for s in job_spans}) == 2

    def test_scratch_replay_stores_leave_with_their_worker(
        self, tmp_path, monkeypatch
    ):
        """A replay job without a ``store`` param captures into a
        scratch store under the temp dir; a forked worker leaves by
        ``os._exit`` and must remove it first."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "replay", "experiment": "survey_replay",
            "grid": {"size": [60, 80]}, "trials": 2,
        }))
        run = run_repro(
            "campaign", "run", str(spec_path), "--out",
            str(tmp_path / "out"), "--workers", "2", "--quiet",
        )
        assert run.returncode == 0, run.stderr
        assert len(ResultStore(tmp_path / "out").load_records()) == 4
        assert list(scratch.iterdir()) == []

    def test_inherited_trace_context_does_not_reach_a_worker(
        self, tmp_path, monkeypatch
    ):
        # The scheduler runs inside an inherited trace, as
        # REPRO_OBS_TRACE installs it at import.
        monkeypatch.setenv(obs.ENV_TRACE, "feedfacecafebeef:1-1")
        tracectx.set_trace("feedfacecafebeef", "1-1")
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        spec = CampaignSpec(
            name="env-probe", experiment="fleet_env_probe", grid={"x": [1, 2, 3, 4]},
        )
        result = run_cluster(
            spec, tmp_path / "probe", workers=2, obs_sink=str(sink),
            deadline_seconds=120.0,
        )
        obs.flush()
        obs.reset()
        assert result["counts"]["ok"] == 4

        records = ResultStore(tmp_path / "probe").load_records().values()
        assert [r.metrics for r in records] == [{"env_trace": 0, "env_sink": 0}] * 4
        events = obs.load_events([str(sink)])
        campaign = next(e for e in events if e.get("name") == "cluster.campaign")
        # The campaign joins the inherited trace; its jobs parent to it,
        # never to the inherited remote parent.
        assert campaign["trace"] == "feedfacecafebeef"
        assert campaign["parent"] == "1-1"
        job_spans = [
            e for e in events
            if e.get("kind") == "span" and e.get("name") == "campaign.job"
        ]
        assert len(job_spans) == 4
        assert {s["parent"] for s in job_spans} == {campaign["id"]}
