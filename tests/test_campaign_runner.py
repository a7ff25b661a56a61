"""Runner semantics: retries, timeouts, crash tolerance, resume.

Everything here uses the inline runner, so the full scheduling, retry
and persistence machinery runs single-process and fast; the tests at
the bottom go through real worker processes forked by ``run_cluster``.
"""

import os
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    register_experiment,
)
from repro.campaign.spec import FaultInjection
from repro.campaign.store import metrics_digest
from repro.cluster import run_cluster


@pytest.fixture(autouse=True)
def clean_obs():
    """warn_once dedupes per process even while disabled; isolate it."""
    obs.reset()
    yield
    obs.reset()

CALLS: list = []


@register_experiment("test_echo")
def _echo(params: dict, seed: int) -> dict:
    """Fast deterministic experiment for runner tests."""
    CALLS.append((tuple(sorted(params.items())), seed))
    return {"value": params.get("x", 0) * 10, "seed_mod": seed % 97}


@register_experiment("test_flaky")
def _flaky(params: dict, seed: int) -> dict:
    """Fails every attempt for x >= threshold."""
    if params.get("x", 0) >= params.get("threshold", 99):
        raise RuntimeError(f"boom x={params['x']}")
    return {"value": params.get("x", 0)}


@register_experiment("test_sleepy")
def _sleepy(params: dict, seed: int) -> dict:
    """Sleeps; used for timeout and wall-clock parallelism tests."""
    time.sleep(params.get("sleep", 0.01))
    return {"slept": params.get("sleep", 0.01)}


def run_spec(spec, tmp_path, resume=False):
    store = ResultStore(tmp_path / spec.name)
    return CampaignRunner(spec, store).run(resume=resume), store


def run_fleet(spec, tmp_path, workers):
    """``spec`` on ``workers`` forked worker processes; returns the
    outcome counts (skipped excluded) and the store."""
    outcome = run_cluster(
        spec, tmp_path / spec.name, workers=workers, deadline_seconds=120.0
    )
    counts = {k: v for k, v in outcome["counts"].items() if k != "skipped"}
    return counts, ResultStore(tmp_path / spec.name)


class TestHappyPath:
    def test_all_jobs_recorded_ok(self, tmp_path):
        spec = CampaignSpec(
            name="ok", experiment="test_echo", grid={"x": [1, 2, 3]}, trials=2
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 6}
        records = store.load_records()
        assert len(records) == 6
        assert all(r.ok and r.attempts == 1 for r in records.values())
        assert {r.metrics["value"] for r in records.values()} == {10, 20, 30}

    def test_experiment_receives_derived_seed(self, tmp_path):
        CALLS.clear()
        spec = CampaignSpec(
            name="seeds", experiment="test_echo", grid={"x": [1]}, trials=3
        )
        run_spec(spec, tmp_path)
        seeds = [seed for _, seed in CALLS]
        assert len(set(seeds)) == 3
        assert seeds == [job.seed for job in spec.jobs()]


class TestRetries:
    def test_injected_failure_then_retry_succeeds(self, tmp_path):
        spec = CampaignSpec(
            name="retry",
            experiment="test_echo",
            grid={"x": [1, 2, 3, 4]},
            max_retries=2,
            retry_backoff=0.0,
            inject_failures=FaultInjection(count=2, attempts=1),
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 4}
        attempts = sorted(r.attempts for r in store.load_records().values())
        assert attempts == [1, 1, 2, 2]

    def test_permanent_failure_recorded_not_raised(self, tmp_path):
        spec = CampaignSpec(
            name="fail",
            experiment="test_flaky",
            grid={"x": [1, 100]},
            fixed={"threshold": 50},
            max_retries=1,
            retry_backoff=0.0,
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 1, "failed": 1}
        failed = [r for r in store.load_records().values() if not r.ok]
        assert len(failed) == 1
        assert failed[0].attempts == 2  # first try + one retry
        assert "boom x=100" in failed[0].error

    def test_retry_backoff_delays_reattempt(self, tmp_path):
        spec = CampaignSpec(
            name="backoff",
            experiment="test_echo",
            grid={"x": [1]},
            max_retries=1,
            retry_backoff=0.15,
            inject_failures=FaultInjection(count=1, attempts=1),
        )
        start = time.monotonic()
        result, _ = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 1}
        assert time.monotonic() - start >= 0.15


class TestTimeout:
    def test_overrunning_job_is_killed_and_recorded(self, tmp_path):
        spec = CampaignSpec(
            name="timeout",
            experiment="test_sleepy",
            grid={"sleep": [0.01, 5.0]},
            timeout_seconds=0.25,
            max_retries=0,
        )
        start = time.monotonic()
        result, store = run_spec(spec, tmp_path)
        assert time.monotonic() - start < 3.0  # the 5 s job did not run out
        assert result.counts == {"ok": 1, "timeout": 1}
        timed_out = [r for r in store.load_records().values() if not r.ok]
        assert timed_out[0].status == "timeout"
        assert "0.25" in timed_out[0].error


class TestCrashTolerance:
    def test_crashed_worker_recorded_campaign_continues(self, tmp_path):
        spec = CampaignSpec(
            name="crash",
            experiment="test_echo",
            grid={"x": [1, 2, 3]},
            max_retries=0,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 2, "crashed": 1}
        records = store.load_records()
        assert len(records) == 3  # the crash is a record, not an abort

    def test_crash_then_retry_succeeds(self, tmp_path):
        spec = CampaignSpec(
            name="crash-retry",
            experiment="test_echo",
            grid={"x": [1, 2]},
            max_retries=1,
            retry_backoff=0.0,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        result, _ = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 2}


class TestResume:
    def spec(self):
        return CampaignSpec(
            name="resume", experiment="test_echo", grid={"x": [1, 2, 3]}, trials=2
        )

    def test_fresh_directory_rejects_resumeless_rerun(self, tmp_path):
        run_spec(self.spec(), tmp_path)
        with pytest.raises(FileExistsError, match="resume"):
            run_spec(self.spec(), tmp_path)

    def test_resume_skips_completed_jobs(self, tmp_path):
        run_spec(self.spec(), tmp_path)
        CALLS.clear()
        result, _ = run_spec(self.spec(), tmp_path, resume=True)
        assert result.skipped == 6
        assert result.counts == {}
        assert CALLS == []  # nothing re-executed

    def test_resume_runs_only_missing_jobs(self, tmp_path):
        spec = self.spec()
        result, store = run_spec(spec, tmp_path)
        # Simulate an interruption: drop the records of two jobs.
        records = store.load_records()
        keep = list(records)[:-2]
        store.results_path.write_text(
            "".join(
                __import__("json").dumps(records[k].to_dict()) + "\n" for k in keep
            )
        )
        result, store = run_spec(spec, tmp_path, resume=True)
        assert result.skipped == 4
        assert result.counts == {"ok": 2}
        assert len(store.load_records()) == 6

    def test_resume_different_spec_rejected(self, tmp_path):
        run_spec(self.spec(), tmp_path)
        other = CampaignSpec(
            name="resume", experiment="test_echo", grid={"x": [9]}, trials=2
        )
        with pytest.raises(ValueError, match="fresh directory"):
            run_spec(other, tmp_path, resume=True)


class TestTimeoutEnforcement:
    """Per-job budgets silently do nothing without SIGALRM; the runner
    must say so (once) and stamp ``timeout_enforced: false`` on the
    records instead of pretending the budget was live."""

    def _run(self, tmp_path, spec):
        events = []
        store = ResultStore(tmp_path / spec.name)
        runner = CampaignRunner(spec, store, on_event=events.append)
        return runner.run(), store, events

    def test_unenforceable_budget_flagged_and_warned_once(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.executor as executor_mod

        monkeypatch.setattr(executor_mod, "alarm_supported", lambda: False)
        spec = CampaignSpec(
            name="noalarm",
            experiment="test_echo",
            grid={"x": [1, 2, 3]},
            timeout_seconds=5.0,
        )
        result, store, events = self._run(tmp_path, spec)
        assert result.counts == {"ok": 3}
        records = store.load_records().values()
        assert all(r.timeout_enforced is False for r in records)
        warnings = [e for e in events if "cannot be enforced" in e]
        assert len(warnings) == 1  # once per campaign, not per job

    def test_enforceable_budget_stamped_true(self, tmp_path):
        if not hasattr(__import__("signal"), "SIGALRM"):
            pytest.skip("platform has no SIGALRM")
        spec = CampaignSpec(
            name="alarm",
            experiment="test_echo",
            grid={"x": [1]},
            timeout_seconds=5.0,
        )
        result, store, events = self._run(tmp_path, spec)
        (record,) = store.load_records().values()
        assert record.timeout_enforced is True
        assert not any("cannot be enforced" in e for e in events)

    def test_scheduler_warns_once_at_submit(self, tmp_path, monkeypatch):
        """The warning lives in the scheduler, so `cluster run` gives
        it too: once per process, however many campaigns it takes."""
        import repro.campaign.executor as executor_mod
        from repro.cluster import ClusterScheduler

        monkeypatch.setattr(executor_mod, "alarm_supported", lambda: False)
        events = []
        scheduler = ClusterScheduler(on_event=events.append)
        for name in ("noalarm-a", "noalarm-b"):
            spec = CampaignSpec(
                name=name,
                experiment="test_echo",
                grid={"x": [1]},
                timeout_seconds=5.0,
            )
            scheduler.submit(spec, tmp_path / name)
        warnings = [e for e in events if "cannot be enforced" in e]
        assert len(warnings) == 1

    def test_no_budget_means_not_applicable(self, tmp_path):
        spec = CampaignSpec(
            name="nobudget", experiment="test_echo", grid={"x": [1]}
        )
        _, store, _ = self._run(tmp_path, spec)
        (record,) = store.load_records().values()
        assert record.timeout_enforced is None


@register_experiment("test_interrupt_once")
def _interrupt_once(params: dict, seed: int) -> dict:
    """Raises KeyboardInterrupt while the flag file exists (consuming
    it), so a resumed campaign sails through."""
    flag = params.get("flag")
    if params.get("x") == 2 and flag and os.path.exists(flag):
        os.unlink(flag)
        raise KeyboardInterrupt
    return {"value": params.get("x", 0)}


class TestKeyboardInterrupt:
    def test_interrupt_checkpoints_then_resume_completes(self, tmp_path):
        flag = tmp_path / "interrupt.flag"
        flag.write_text("armed")

        def spec():
            return CampaignSpec(
                name="ki",
                experiment="test_interrupt_once",
                grid={"x": [1, 2, 3]},
                fixed={"flag": str(flag)},
            )

        events = []
        store = ResultStore(tmp_path / "ki")
        runner = CampaignRunner(spec(), store, on_event=events.append)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        # The finished job was flushed to the JSONL checkpoint before
        # the interrupt, and the user is pointed at `campaign resume`.
        assert len(store.load_records()) == 1
        assert any("campaign resume" in e for e in events)

        result, store = run_spec(spec(), tmp_path, resume=True)
        assert result.skipped == 1
        assert result.counts == {"ok": 2}
        assert len(store.load_records()) == 3


class TestProcessPool:
    """The same machinery on real worker processes: the forked fleet
    of ``run_cluster``, which ``campaign run`` drives."""

    def test_real_pool_end_to_end_with_injected_crash(self, tmp_path):
        """Real workers, an injected crash, retry, full recovery."""
        spec = CampaignSpec(
            name="pool",
            experiment="lzw_recovery",
            grid={"size": [30, 40]},
            trials=1,
            max_retries=2,
            retry_backoff=0.0,
            timeout_seconds=60,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        counts, store = run_fleet(spec, tmp_path, workers=2)
        assert counts == {"ok": 2}
        records = store.load_records()
        assert all(r.ok for r in records.values())
        assert max(r.attempts for r in records.values()) >= 2

    def test_worker_count_does_not_change_the_records(self, tmp_path):
        """Derived seeds make a campaign's metrics the same inline and
        on 1 or 4 workers (the ABL-CAT grid's determinism across
        runners)."""
        def spec(name):
            return CampaignSpec(
                name=name,
                experiment="lzw_recovery",
                grid={"size": [30, 40, 50, 60]},
                base_seed=66,
            )

        inline, inline_store = run_spec(spec("inline"), tmp_path)
        counts1, store1 = run_fleet(spec("w1"), tmp_path, workers=1)
        counts4, store4 = run_fleet(spec("w4"), tmp_path, workers=4)
        assert inline.counts == counts1 == counts4 == {"ok": 4}
        digests = {
            metrics_digest(store.load_records())
            for store in (inline_store, store1, store4)
        }
        assert len(digests) == 1

    def test_parallel_workers_cut_wall_time(self, tmp_path):
        """Scheduler-level parallelism: sleep-bound jobs finish faster
        with 4 workers than with 1 regardless of core count."""
        def spec(name):
            return CampaignSpec(
                name=name,
                experiment="test_sleepy",  # the forked workers inherit it
                grid={"i": list(range(8))},
                fixed={"sleep": 0.15},
            )

        start = time.monotonic()
        counts1, _ = run_fleet(spec("w1"), tmp_path, workers=1)
        serial = time.monotonic() - start
        start = time.monotonic()
        counts4, _ = run_fleet(spec("w4"), tmp_path, workers=4)
        parallel = time.monotonic() - start
        assert counts1 == counts4 == {"ok": 8}
        assert parallel < serial
