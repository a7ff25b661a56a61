"""ClusterScheduler semantics with in-process fake workers.

The scheduler core is synchronous and clock-injected, so the full
failure matrix — lease expiry, duplicate completion, worker disconnect,
scheduler restart + resume — runs without sockets, subprocesses, or
sleeps.  The fake worker below does exactly what the real
:class:`repro.cluster.worker.ClusterWorker` does per lease: run the
payload with :func:`run_attempt`, write terminal records to its own
shard, report the outcome.
"""

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    metrics_digest,
    register_experiment,
)
from repro.campaign.executor import run_attempt
from repro.campaign.spec import FaultInjection
from repro.campaign.store import SpecMismatchError
from repro.cluster import ClusterScheduler
from repro.cluster.worker import finish_job
from repro.obs import tracectx
from repro.obs.report import trace_summary
from repro.cluster.scheduler import (
    SCHEDULER_SHARD,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_RUNNING,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@register_experiment("cluster_echo")
def _echo(params: dict, seed: int) -> dict:
    return {"value": params.get("x", 0) * 7, "seed_mod": seed % 101}


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def work_once(scheduler: ClusterScheduler, worker_id: str):
    """One lease -> execute -> record -> report cycle, exactly as the
    real worker performs it (including adopting the job message's trace
    context for the attempt).  Returns the job message, or None."""
    message = scheduler.request_lease(worker_id)
    if message is None:
        return None
    with tracectx.adopted(message.get("trace")):
        outcome = run_attempt(message["payload"])
        shard = ResultStore(message["store_root"]).shard_store(worker_id)
        result = finish_job(shard, worker_id, message, outcome)
    scheduler.handle_result(worker_id, result)
    return message


def drain(scheduler, workers=("wA", "wB"), clock=None, max_steps=500):
    """Drive fake workers until every campaign finalizes."""
    for _ in range(max_steps):
        if not scheduler.active():
            return
        progressed = False
        for worker_id in workers:  # no any(): every worker gets a turn
            if work_once(scheduler, worker_id) is not None:
                progressed = True
        if not progressed:
            if clock is None:
                pytest.fail("no progress and no clock to advance")
            clock.advance(1.0)
            scheduler.tick()
    pytest.fail(f"campaigns never drained in {max_steps} steps")


def drill_spec(name="drill", trials=2):
    return CampaignSpec(
        name=name,
        experiment="cluster_echo",
        grid={"x": [1, 2, 3, 4]},
        trials=trials,
        max_retries=2,
        retry_backoff=0.0,
        inject_failures=FaultInjection(count=2, attempts=1),
    )


class TestFullFlow:
    def test_cluster_digest_equals_single_host(self, tmp_path):
        """The determinism contract: same spec + seed => identical
        metrics digest on the local pool and on N cluster workers."""
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        scheduler.submit(drill_spec(), tmp_path / "cluster")
        drain(scheduler, clock=clock)

        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_DONE
        assert exec_.counts == {"ok": 8}
        assert exec_.retries == 2  # the two injected first-attempt failures

        cluster_store = ResultStore(tmp_path / "cluster")
        records = cluster_store.load_records()
        assert len(records) == 8
        assert all(record.ok for record in records.values())
        manifest = cluster_store.load_manifest()
        assert manifest["outcomes"] == {"ok": 8}

        single_store = ResultStore(tmp_path / "single")
        result = CampaignRunner(drill_spec(), single_store).run()
        assert result.counts == {"ok": 8}
        single = single_store.load_records()
        assert metrics_digest(records) == metrics_digest(single)
        # Same state machine, same accounting: every job ends with the
        # same status after the same number of attempts.
        assert {
            job_id: (r.status, r.attempts) for job_id, r in records.items()
        } == {job_id: (r.status, r.attempts) for job_id, r in single.items()}

    def test_results_spread_across_worker_shards(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        scheduler.submit(drill_spec(), tmp_path / "c")
        drain(scheduler, clock=clock)
        shard_names = [
            shard.root.name
            for shard in ResultStore(tmp_path / "c").shard_stores()
        ]
        assert shard_names == ["shard-wA", "shard-wB"]
        # Shards persist post-merge as the audit trail; main log wins.
        assert len(ResultStore(tmp_path / "c").load_records()) == 8


class TestLeaseExpiry:
    def test_expiry_of_final_attempt_writes_crashed_record(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(lease_seconds=30.0, clock=clock)
        spec = CampaignSpec(
            name="dead",
            experiment="cluster_echo",
            grid={"x": [1]},
            max_retries=0,
        )
        scheduler.submit(spec, tmp_path / "dead")
        assert scheduler.request_lease("ghost") is not None
        clock.advance(31.0)
        scheduler.tick()

        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_DONE
        assert exec_.counts == {"crashed": 1}
        (record,) = ResultStore(tmp_path / "dead").load_records().values()
        assert record.status == "crashed"
        assert record.attempts == 1
        assert "lease expired" in record.error
        assert "ghost" in record.error
        # The terminal record came from the scheduler's own shard.
        shard = ResultStore(tmp_path / "dead").shard_store(SCHEDULER_SHARD)
        assert len(shard.load_records()) == 1

    def test_expiry_with_retries_left_requeues_with_attempt_charged(
        self, tmp_path
    ):
        clock = FakeClock()
        scheduler = ClusterScheduler(lease_seconds=30.0, clock=clock)
        spec = CampaignSpec(
            name="requeue",
            experiment="cluster_echo",
            grid={"x": [1]},
            max_retries=1,
            retry_backoff=0.0,
        )
        scheduler.submit(spec, tmp_path / "requeue")
        assert scheduler.request_lease("ghost") is not None
        clock.advance(31.0)
        scheduler.tick()
        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_RUNNING
        assert exec_.retries == 1

        message = work_once(scheduler, "wB")  # the requeued attempt
        assert message["payload"]["attempt"] == 1
        assert message["final"] is True
        assert exec_.state == STATE_DONE
        assert exec_.counts == {"ok": 1}
        (record,) = ResultStore(tmp_path / "requeue").load_records().values()
        assert record.ok and record.attempts == 2

    def test_heartbeat_keeps_the_lease_alive(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(lease_seconds=30.0, clock=clock)
        spec = CampaignSpec(
            name="hb", experiment="cluster_echo", grid={"x": [1]}
        )
        scheduler.submit(spec, tmp_path / "hb")
        scheduler.register_worker("slow", pid=1)
        assert scheduler.request_lease("slow") is not None
        for _ in range(4):
            clock.advance(20.0)
            scheduler.heartbeat("slow")
            scheduler.tick()
        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_RUNNING  # 80s elapsed, lease still live
        assert exec_.queue.leased_count == 1


class TestDuplicateCompletion:
    def test_late_result_after_reschedule_is_idempotent(self, tmp_path):
        """Worker A goes dark mid-job and its completion lands *after*
        the lease expired and the job was rescheduled: counted zero
        times, and merge keeps exactly one record."""
        clock = FakeClock()
        scheduler = ClusterScheduler(lease_seconds=30.0, clock=clock)
        spec = CampaignSpec(
            name="dup",
            experiment="cluster_echo",
            grid={"x": [1]},
            max_retries=1,
            retry_backoff=0.0,
        )
        scheduler.submit(spec, tmp_path / "dup")
        slow = scheduler.request_lease("wA")  # goes dark mid-job
        clock.advance(31.0)
        scheduler.tick()  # lease expired, job requeued (attempt 1)
        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_RUNNING

        # A wakes up and its completion lands while the job sits
        # requeued: the lease is gone, so the result is stale — a
        # no-op, even though A wrote its shard record before reporting.
        outcome = run_attempt(slow["payload"])
        shard = ResultStore(slow["store_root"]).shard_store("wA")
        scheduler.handle_result("wA", finish_job(shard, "wA", slow, outcome))
        assert exec_.counts == {}  # not counted
        assert exec_.state == STATE_RUNNING

        fast = work_once(scheduler, "wB")  # the rescheduled attempt
        assert fast["job_id"] == slow["job_id"]
        assert fast["payload"]["attempt"] == 1
        assert exec_.state == STATE_DONE
        assert exec_.counts == {"ok": 1}
        records = ResultStore(tmp_path / "dup").load_records()
        assert len(records) == 1  # the duplicate deduped away
        assert records[slow["job_id"]].attempts == 2  # later chain won


class TestDisconnect:
    def test_disconnect_charges_leases_immediately(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(lease_seconds=1e9, clock=clock)
        spec = CampaignSpec(
            name="gone",
            experiment="cluster_echo",
            grid={"x": [1]},
            max_retries=0,
        )
        scheduler.submit(spec, tmp_path / "gone")
        scheduler.register_worker("doomed", pid=7)
        assert scheduler.request_lease("doomed") is not None
        clock.advance(2.5)  # the worker dies 2.5 s into the job
        scheduler.disconnect_worker("doomed")  # no lease expiry needed
        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_DONE
        assert exec_.counts == {"crashed": 1}
        (record,) = ResultStore(tmp_path / "gone").load_records().values()
        assert "disconnected" in record.error
        # Charged exactly one attempt, and the terminal record keeps
        # the attempt's wall clock.
        assert record.attempts == 1
        assert record.duration_seconds == pytest.approx(2.5)
        assert not scheduler.workers["doomed"].connected

    def test_double_disconnect_is_a_noop(self, tmp_path):
        scheduler = ClusterScheduler(clock=FakeClock())
        scheduler.register_worker("w", pid=1)
        scheduler.disconnect_worker("w")
        scheduler.disconnect_worker("w")  # no raise, no double-charge
        scheduler.disconnect_worker("never-registered")


class TestCancel:
    def test_cancel_drops_pending_and_finalizes(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        spec = CampaignSpec(
            name="cx", experiment="cluster_echo", grid={"x": [1, 2, 3, 4]}
        )
        campaign_id = scheduler.submit(spec, tmp_path / "cx")
        work_once(scheduler, "w")
        assert scheduler.cancel(campaign_id) is True
        exec_ = scheduler.campaigns[campaign_id]
        assert exec_.state == STATE_CANCELLED
        assert exec_.counts == {"ok": 1, "cancelled": 3}
        assert scheduler.request_lease("w") is None
        manifest = ResultStore(tmp_path / "cx").load_manifest()
        assert manifest["outcomes"]["cancelled"] == 3
        # Cancelling again (or a bogus id) reports failure, not a crash.
        assert scheduler.cancel(campaign_id) is False
        assert scheduler.cancel("nope") is False


class TestMultiCampaign:
    def test_fifo_across_campaigns_one_fleet(self, tmp_path):
        """A second submission queues behind the first and drains
        through the same workers — the serve-mode contract."""
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        spec_a = CampaignSpec(
            name="first", experiment="cluster_echo", grid={"x": [1, 2]}
        )
        spec_b = CampaignSpec(
            name="second", experiment="cluster_echo", grid={"x": [3, 4]}
        )
        id_a = scheduler.submit(spec_a, tmp_path / "a")
        id_b = scheduler.submit(spec_b, tmp_path / "b")
        served = [work_once(scheduler, "w")["campaign_id"] for _ in range(4)]
        assert served == [id_a, id_a, id_b, id_b]  # strict FIFO
        assert scheduler.campaigns[id_a].state == STATE_DONE
        assert scheduler.campaigns[id_b].state == STATE_DONE
        status = scheduler.status_payload()
        assert [c["campaign_id"] for c in status["campaigns"]] == [id_a, id_b]
        assert all(c["state"] == "done" for c in status["campaigns"])


class TestSpecMismatch:
    def test_submit_against_foreign_directory_names_both_hashes(
        self, tmp_path
    ):
        scheduler = ClusterScheduler(clock=FakeClock())
        original = CampaignSpec(
            name="mine", experiment="cluster_echo", grid={"x": [1]}
        )
        scheduler.submit(original, tmp_path / "c")
        other = CampaignSpec(
            name="mine", experiment="cluster_echo", grid={"x": [9]}
        )
        with pytest.raises(SpecMismatchError) as excinfo:
            scheduler.submit(other, tmp_path / "c", resume=True)
        message = str(excinfo.value)
        assert original.spec_hash() in message
        assert other.spec_hash() in message


class TestRestartResume:
    def test_new_scheduler_resumes_from_unmerged_shards(self, tmp_path):
        """Scheduler dies mid-campaign (records still sitting in worker
        shards, nothing merged): a fresh scheduler resuming the same
        spec skips them, finishes the rest, and the merged result is
        digest-identical to a single-host run."""
        spec = drill_spec(name="restart")
        clock1 = FakeClock()
        first = ClusterScheduler(clock=clock1)
        first.submit(spec, tmp_path / "c")
        for _ in range(3):
            assert work_once(first, "wA") is not None
        (exec1,) = first.campaigns.values()
        assert exec1.state == STATE_RUNNING  # abandoned mid-run
        assert not (tmp_path / "c" / "results.jsonl").exists()  # unmerged

        clock2 = FakeClock()
        second = ClusterScheduler(clock=clock2)
        second.submit(spec, tmp_path / "c", resume=True)
        (exec2,) = second.campaigns.values()
        done_before = len(
            ResultStore(tmp_path / "c").completed_ids(include_shards=True)
        )
        assert exec2.skipped == done_before > 0
        drain(second, clock=clock2)
        assert exec2.state == STATE_DONE
        assert exec2.counts.get("ok", 0) + exec2.skipped == 8

        records = ResultStore(tmp_path / "c").load_records()
        assert len(records) == 8
        single = ResultStore(tmp_path / "single")
        CampaignRunner(drill_spec(name="restart"), single).run()
        assert metrics_digest(records) == metrics_digest(
            single.load_records()
        )

    def test_resuming_a_finished_campaign_keeps_its_outcomes(self, tmp_path):
        """The manifest counts the campaign's records, not one
        invocation's: a resume of a finished 1-job campaign runs
        nothing and the manifest still says the job succeeded."""
        spec = CampaignSpec(name="one", experiment="cluster_echo", grid={"x": [1]})
        clock = FakeClock()
        first = ClusterScheduler(clock=clock)
        first.submit(spec, tmp_path / "c")
        drain(first, clock=clock)
        store = ResultStore(tmp_path / "c")
        assert store.load_manifest()["outcomes"] == {"ok": 1}

        second = ClusterScheduler(clock=clock)
        second.submit(spec, tmp_path / "c", resume=True)
        (exec_,) = second.campaigns.values()
        assert exec_.state == STATE_DONE
        assert exec_.skipped == 1 and "ok" not in exec_.counts
        assert store.load_manifest()["outcomes"] == {"ok": 1}


class TestStatusPayload:
    def test_workers_and_campaigns_reported(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        scheduler.register_worker("w1", pid=11)
        spec = CampaignSpec(
            name="s", experiment="cluster_echo", grid={"x": [1, 2]}
        )
        scheduler.submit(spec, tmp_path / "s")
        work_once(scheduler, "w1")
        payload = scheduler.status_payload()
        (campaign,) = payload["campaigns"]
        assert campaign["state"] == STATE_RUNNING
        assert campaign["done"] == 1
        assert campaign["pending"] == 1
        (worker,) = payload["workers"]
        assert worker == {
            "worker_id": "w1",
            "pid": 11,
            "connected": True,
            "jobs_done": 1,
            "last_seen_seconds_ago": 0.0,
        }


class TestTelemetryAndTrace:
    """The scheduler's queue telemetry and the cross-process trace tree
    (here cross-*context*: the fake workers adopt the wire trace the
    way real workers do, so the stitching logic is fully exercised)."""

    def _run_drill(self, tmp_path, sink=None):
        if sink is None:
            obs.enable()
        else:
            obs.enable(sink_path=str(sink))
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        scheduler.submit(drill_spec(), tmp_path / "c")
        drain(scheduler, clock=clock)
        obs.flush()
        return scheduler

    def test_lease_wait_histogram_counts_every_lease(self, tmp_path):
        self._run_drill(tmp_path)
        hist = obs.histograms_snapshot()["cluster.lease_wait_seconds"]
        # 8 jobs + 2 injected-failure retries = 10 leases granted
        assert hist["count"] == 10
        assert hist["min"] >= 0.0

    def test_queue_depth_observed_at_submit_and_each_lease(self, tmp_path):
        self._run_drill(tmp_path)
        hist = obs.histograms_snapshot()["cluster.queue_depth"]
        assert hist["count"] == 11  # 1 submit snapshot + 10 leases
        assert hist["max"] == 8.0  # the full grid at submit

    def test_retry_backoff_observed_per_retry(self, tmp_path):
        self._run_drill(tmp_path)
        hist = obs.histograms_snapshot()["cluster.backoff_seconds"]
        assert hist["count"] == 2  # the two injected failures
        assert hist["total"] == 0.0  # drill_spec uses retry_backoff=0.0

    def test_telemetry_silent_while_disabled(self, tmp_path):
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        scheduler.submit(drill_spec(), tmp_path / "c")
        drain(scheduler, clock=clock)
        assert obs.histograms_snapshot() == {}
        (exec_,) = scheduler.campaigns.values()
        assert exec_.trace_id == ""  # no trace machinery engaged

    def test_campaign_trace_stitches_with_zero_orphans(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        self._run_drill(tmp_path, sink=sink)
        events = obs.load_events(str(sink))
        summary = trace_summary(events)
        assert summary["root"]["name"] == "cluster.campaign"
        assert summary["n_orphans"] == 0
        assert len(summary["trace_ids"]) == 1
        # every job attempt and the shard merge joined the same tree
        assert summary["compute_seconds"] > 0.0
        assert summary["merge_seconds"] > 0.0
        job_spans = [
            e for e in events
            if e.get("kind") == "span" and e.get("name") == "campaign.job"
        ]
        # injected failures raise before the job span opens, so only
        # the 8 successful attempts produce spans
        assert len(job_spans) == 8
        root_id = summary["root"]["id"]
        assert all(s["parent"] == root_id for s in job_spans)
        assert all(
            s.get("trace") == summary["trace_ids"][0] for s in job_spans
        )

    def test_scheduler_joins_an_inherited_process_trace(self, tmp_path):
        obs.enable()
        tracectx.set_trace("feedbeefcafe0123")
        clock = FakeClock()
        scheduler = ClusterScheduler(clock=clock)
        scheduler.submit(drill_spec(), tmp_path / "c")
        (exec_,) = scheduler.campaigns.values()
        assert exec_.trace_id == "feedbeefcafe0123"
