"""Runner semantics: retries, timeouts, crash tolerance, resume.

Everything here uses the in-process executor, so the full scheduling,
retry and persistence machinery runs single-process and fast; one
smoke test at the bottom goes through a real ``ProcessPoolExecutor``.
"""

import os
import time
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    InProcessExecutor,
    ResultStore,
    register_experiment,
)
from repro.campaign.spec import FaultInjection


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


def run_spec(spec, tmp_path, resume=False, workers=1, factory=InProcessExecutor):
    store = ResultStore(tmp_path / spec.name)
    runner = CampaignRunner(
        spec, store, workers=workers, executor_factory=factory
    )
    return runner.run(resume=resume), store


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


class _BreakingExecutor(InProcessExecutor):
    """An executor whose first ``breaks`` submissions come back as a
    broken pool (``BrokenExecutor`` raised at ``result()`` time, like a
    real ``ProcessPoolExecutor`` after a worker dies), with a small
    delay so terminal records have measurable wall clock."""

    def __init__(self, breaks: int = 0, delay: float = 0.0) -> None:
        self.breaks = breaks
        self.delay = delay

    def submit(self, fn, *args, **kwargs) -> Future:
        if self.breaks > 0:
            self.breaks -= 1
            if self.delay:
                time.sleep(self.delay)
            future: Future = Future()
            future.set_exception(BrokenExecutor("worker died"))
            return future
        return super().submit(fn, *args, **kwargs)


class TestBrokenPoolAccounting:
    """Each runner slot has its own executor.  A broken executor charges
    its slot's job exactly one attempt, keeps that attempt's real
    wall-clock duration (it used to reset ``submitted_at`` to 0.0 right
    before recording, zeroing every crash-terminated job's duration) and
    rebuilds only that slot's executor."""

    def _runner(self, spec, tmp_path, breaks, delay=0.0):
        built = []

        def factory():
            executor = _BreakingExecutor(
                breaks=breaks if not built else 0, delay=delay
            )
            built.append(executor)
            return executor

        store = ResultStore(tmp_path / spec.name)
        return CampaignRunner(spec, store, executor_factory=factory), store, built

    def test_broken_pool_job_charged_exactly_one_attempt(self, tmp_path):
        spec = CampaignSpec(
            name="broke-retry",
            experiment="test_echo",
            grid={"x": [1]},
            max_retries=1,
            retry_backoff=0.0,
        )
        runner, store, built = self._runner(spec, tmp_path, breaks=1)
        result = runner.run()
        assert result.counts == {"ok": 1}
        assert len(built) == 2  # the slot was rebuilt exactly once
        (record,) = store.load_records().values()
        # broken-pool attempt charged once, successful retry second
        assert record.attempts == 2

    def test_terminal_crash_keeps_wall_clock_duration(self, tmp_path):
        spec = CampaignSpec(
            name="broke-terminal",
            experiment="test_echo",
            grid={"x": [1]},
            max_retries=0,
        )
        runner, store, _ = self._runner(spec, tmp_path, breaks=1, delay=0.05)
        result = runner.run()
        assert result.counts == {"crashed": 1}
        (record,) = store.load_records().values()
        assert record.attempts == 1
        assert record.duration_seconds >= 0.04  # not the old hard 0.0

    def test_only_the_crashed_slots_job_is_charged(self, tmp_path):
        spec = CampaignSpec(
            name="broke-flight",
            experiment="test_echo",
            grid={"x": [1, 2]},
            max_retries=1,
            retry_backoff=0.0,
        )
        built = []

        def factory():
            # Slot 0's first executor breaks; slot 1's never does.
            executor = _BreakingExecutor(breaks=2 if not built else 0)
            built.append(executor)
            return executor

        store = ResultStore(tmp_path / spec.name)
        runner = CampaignRunner(
            spec, store, workers=2, executor_factory=factory
        )
        result = runner.run()
        assert result.counts == {"ok": 2}
        assert len(built) == 3  # two slots, then slot 0 once more
        attempts = {r.params["x"]: r.attempts for r in store.load_records().values()}
        assert attempts == {1: 2, 2: 1}


class _BreaksOnSubmit(InProcessExecutor):
    """Runs its first ``runs`` submissions to completion, then raises
    ``BrokenExecutor`` from ``submit``: a slot whose worker finished
    one job and then died."""

    def __init__(self, runs: int) -> None:
        self.runs = runs

    def submit(self, fn, *args, **kwargs) -> Future:
        if self.runs == 0:
            raise BrokenExecutor("worker died")
        self.runs -= 1
        return super().submit(fn, *args, **kwargs)


class TestPoolRebuildBystander:
    """A job that already finished on a slot is not re-run when that
    slot's executor breaks afterwards, and a job whose submit finds the
    executor broken keeps its lease on the rebuilt slot, uncharged."""

    def test_finished_job_runs_once_and_is_charged_once(self, tmp_path):
        spec = CampaignSpec(
            name="broke-bystander",
            experiment="test_echo",
            grid={"x": [1, 2]},
            max_retries=1,
            retry_backoff=0.0,
        )
        built = []

        def factory():
            # Executor 1 finishes job A (x=1), then breaks on job B (x=2).
            executor = _BreaksOnSubmit(runs=1 if not built else 99)
            built.append(executor)
            return executor

        CALLS.clear()
        store = ResultStore(tmp_path / spec.name)
        runner = CampaignRunner(spec, store, executor_factory=factory)
        result = runner.run()
        assert result.counts == {"ok": 2}
        assert len(built) == 2
        runs = [dict(params)["x"] for params, _ in CALLS]
        assert sorted(runs) == [1, 2]  # A ran once, B once on the new slot
        attempts = {r.params["x"]: r.attempts for r in store.load_records().values()}
        assert attempts == {1: 1, 2: 1}


def _slow(fn, payload):
    time.sleep(0.3)
    return fn(payload)


class _ThreadedBreakOnce(ThreadPoolExecutor):
    """Job x=1's first attempt comes back from a dead worker; every other
    attempt runs on a thread for 0.3 s, so it is still in flight when
    the crash is seen."""

    def __init__(self, state: dict) -> None:
        super().__init__(max_workers=1)
        self.state = state

    def submit(self, fn, payload) -> Future:
        if payload["params"]["x"] == 1 and not self.state["broke"]:
            self.state["broke"] = True
            future: Future = Future()
            future.set_exception(BrokenExecutor("worker died"))
            return future
        return super().submit(_slow, fn, payload)


class TestSlotIsolation:
    """A crash in one slot must not touch a job running in another: the
    running job finishes on its own executor, runs once and is charged
    one attempt (one shared pool used to fail every pending future, so
    the bystander was charged and re-run)."""

    def test_crash_in_slot_a_leaves_slot_b_running(self, tmp_path):
        spec = CampaignSpec(
            name="slot-isolation",
            experiment="test_echo",
            grid={"x": [1, 2]},
            max_retries=1,
            retry_backoff=0.0,
        )
        state = {"broke": False}
        CALLS.clear()
        store = ResultStore(tmp_path / spec.name)
        runner = CampaignRunner(
            spec, store, workers=2, executor_factory=lambda: _ThreadedBreakOnce(state)
        )
        result = runner.run()
        assert result.counts == {"ok": 2}
        runs = [dict(params)["x"] for params, _ in CALLS]
        assert sorted(runs) == [1, 2]  # B ran once; A once after its crash
        attempts = {r.params["x"]: r.attempts for r in store.load_records().values()}
        assert attempts == {1: 2, 2: 1}


class TestTimeoutEnforcement:
    """Per-job budgets silently do nothing without SIGALRM; the runner
    must say so (once) and stamp ``timeout_enforced: false`` on the
    records instead of pretending the budget was live."""

    def _run(self, tmp_path, spec):
        events = []
        store = ResultStore(tmp_path / spec.name)
        runner = CampaignRunner(
            spec,
            store,
            executor_factory=InProcessExecutor,
            on_event=events.append,
        )
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
        runner = CampaignRunner(
            spec(),
            store,
            executor_factory=InProcessExecutor,
            on_event=events.append,
        )
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
    def test_real_pool_end_to_end_with_injected_crash(self, tmp_path):
        """Smoke the default ProcessPoolExecutor path: real workers, a
        real ``os._exit`` crash, pool rebuild, retry, full recovery."""
        spec = CampaignSpec(
            name="pool",
            experiment="lzw_recovery",  # importable by worker processes
            grid={"size": [30, 40]},
            trials=1,
            max_retries=2,
            retry_backoff=0.0,
            timeout_seconds=60,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        store = ResultStore(tmp_path / "pool")
        result = CampaignRunner(spec, store, workers=2).run()
        assert result.counts == {"ok": 2}
        records = store.load_records()
        assert all(r.ok for r in records.values())
        assert max(r.attempts for r in records.values()) >= 2

    def test_worker_count_does_not_change_the_records(self, tmp_path):
        """Derived seeds make a campaign's metrics the same for 1 and 4
        workers (the ABL-CAT grid's determinism across runners)."""
        from repro.campaign.store import metrics_digest

        def spec(name):
            return CampaignSpec(
                name=name,
                experiment="lzw_recovery",  # importable by worker processes
                grid={"size": [30, 40, 50, 60]},
                base_seed=66,
            )

        result1, store1 = run_spec(spec("w1"), tmp_path, workers=1, factory=None)
        result4, store4 = run_spec(spec("w4"), tmp_path, workers=4, factory=None)
        assert result1.counts == result4.counts == {"ok": 4}
        assert metrics_digest(store1.load_records()) == metrics_digest(
            store4.load_records()
        )

    def test_parallel_workers_cut_wall_time(self, tmp_path):
        """Scheduler-level parallelism: sleep-bound jobs finish faster
        with 4 workers than with 1 regardless of core count."""
        def spec(name):
            return CampaignSpec(
                name=name,
                experiment="test_sleepy",
                grid={"i": list(range(8))},
                fixed={"sleep": 0.15},
            )

        start = time.monotonic()
        result1, _ = run_spec(spec("w1"), tmp_path, workers=1, factory=None)
        serial = time.monotonic() - start
        start = time.monotonic()
        result4, _ = run_spec(spec("w4"), tmp_path, workers=4, factory=None)
        parallel = time.monotonic() - start
        assert result1.counts == result4.counts == {"ok": 8}
        assert parallel < serial
