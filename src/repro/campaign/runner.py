"""Single-host campaign execution: the local transport of the scheduler.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into
finished :class:`~repro.campaign.store.JobRecord` rows on this machine.
It holds no campaign state machine of its own.  It submits the
campaign to a :class:`~repro.cluster.scheduler.ClusterScheduler` and
registers each of its ``workers`` executor slots as a scheduler
worker; then, turn by turn, it leases a job for every free slot, runs
:func:`~repro.campaign.executor.run_attempt` on the executor, persists
the terminal record with :func:`repro.cluster.worker.finish_job` (the
helper socket workers use) and reports the outcome with
``handle_result``.  Per-job timeouts, retries with exponential
backoff, attempt charging, terminal crash records and finalize are
therefore exactly those of ``repro cluster run``.

Parallelism comes from ``concurrent.futures.ProcessPoolExecutor``.  A
worker process that dies breaks the whole pool: every slot with a job
in flight is disconnected from the scheduler — which charges each of
those jobs exactly one attempt — and the pool is rebuilt.  The
``executor_factory`` argument swaps in
:class:`~repro.campaign.executor.InProcessExecutor` so
every path (retries, timeouts, simulated crashes) runs single-process
and fast under test.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.campaign.executor import run_attempt
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs import tracectx

__all__ = ["CampaignResult", "CampaignRunner"]


@dataclass
class CampaignResult:
    """What a runner invocation did, in aggregate."""

    counts: dict = field(default_factory=dict)
    skipped: int = 0
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human digest."""
        parts = [f"{v} {k}" for k, v in sorted(self.counts.items())]
        if self.skipped:
            parts.append(f"{self.skipped} skipped (already recorded)")
        return (
            f"campaign: {', '.join(parts) or 'nothing to do'} "
            f"in {self.elapsed_seconds:.2f}s"
        )


class CampaignRunner:
    """Drives one campaign to completion against a result store.

    Args:
        spec: the campaign to run.
        store: where records and the manifest live.
        workers: executor slots, each a scheduler worker (ignored by a
            custom single-slot executor only in that submissions
            serialise).
        executor_factory: zero-arg callable building an executor; the
            default builds a ``ProcessPoolExecutor(workers)``.  Pass
            ``InProcessExecutor`` for in-process runs.
        on_event: optional callback receiving human-readable progress
            lines (the CLI prints them).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        workers: int = 1,
        executor_factory: Optional[Callable[[], object]] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = max(1, workers)
        self._factory = executor_factory or (
            lambda: ProcessPoolExecutor(max_workers=self.workers)
        )
        self._on_event = on_event

    def _emit(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def run(self, resume: bool = False) -> CampaignResult:
        """Execute every job that has no record yet; return aggregate
        counts.  With ``resume`` an existing campaign directory is
        continued instead of rejected."""
        # Deferred: the repro.cluster package imports repro.campaign.
        from repro.cluster.scheduler import ClusterScheduler

        start = time.monotonic()
        scheduler = ClusterScheduler(on_event=self._on_event)
        slots = [f"local-{index}" for index in range(self.workers)]
        for slot in slots:
            scheduler.register_worker(slot, pid=os.getpid())
        if obs.enabled():
            tracectx.begin_trace()
        with obs.span(
            "campaign.run",
            campaign=self.spec.name,
            experiment=self.spec.experiment,
            workers=self.workers,
        ) as run_span:
            campaign_id = scheduler.submit(
                self.spec, self.store.root, resume=resume
            )
            exec_ = scheduler.campaigns[campaign_id]
            run_span.note(jobs=len(exec_.queue.jobs))
            self._drive(scheduler, exec_, slots)

        return CampaignResult(
            counts=dict(exec_.counts),
            skipped=exec_.skipped,
            elapsed_seconds=time.monotonic() - start,
        )

    def _drive(self, scheduler, exec_, slots: list) -> None:
        """Move jobs between the scheduler and the executor until the
        campaign is finalized."""
        from repro.cluster.worker import finish_job

        executor = self._factory()
        in_flight: dict[Future, tuple[str, dict]] = {}  # -> (slot, job)
        try:
            while scheduler.active():
                busy = {slot for slot, _ in in_flight.values()}
                for slot in busy:
                    scheduler.heartbeat(slot)
                for slot in (s for s in slots if s not in busy):
                    job = scheduler.request_lease(slot)
                    if job is None:
                        break
                    try:
                        future = executor.submit(
                            run_attempt, _attempt_payload(job, executor)
                        )
                    except BrokenExecutor:
                        # The pool died before this attempt ran: keep
                        # its lease and run it on the fresh pool.
                        executor = self._replace_pool(
                            scheduler, executor, in_flight
                        )
                        future = executor.submit(
                            run_attempt, _attempt_payload(job, executor)
                        )
                    in_flight[future] = (slot, job)

                if not in_flight:
                    time.sleep(scheduler.idle_retry_after())
                    continue
                finished, _ = wait(
                    list(in_flight), timeout=0.2, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in finished:
                    if isinstance(future.exception(), BrokenExecutor):
                        broken = True
                        continue
                    slot, job = in_flight.pop(future)
                    outcome = future.result()  # re-raises KeyboardInterrupt
                    scheduler.handle_result(
                        slot, finish_job(self.store, slot, job, outcome)
                    )
                if broken:
                    executor = self._replace_pool(
                        scheduler, executor, in_flight
                    )
        except KeyboardInterrupt:
            # Every finished job is already checkpointed (the store
            # flushes per record), so `campaign resume` picks up cleanly
            # at the first unrecorded job.  Cancel what we can and let
            # the interrupt propagate.
            done = exec_.queue.done_count
            obs.log(
                "warning",
                "campaign interrupted",
                campaign=self.spec.name,
                records_checkpointed=done + exec_.skipped,
                pending=exec_.queue.pending_count + exec_.queue.leased_count,
            )
            self._emit(
                f"interrupted: {done} records checkpointed "
                f"this run; continue with `campaign resume {self.store.root}`"
            )
            _shutdown_now(executor)
            raise
        finally:
            executor.shutdown(wait=True)
            obs.flush()

    def _replace_pool(self, scheduler, executor, in_flight: dict):
        """A worker process died and took the pool with it: disconnect
        every slot with a job in flight (the scheduler charges each of
        those jobs exactly one attempt) and return a fresh pool."""
        obs.counter_add("campaign.pool_rebuilds")
        self._emit("worker pool broke (crashed worker); rebuilding pool")
        for slot, _ in in_flight.values():
            scheduler.disconnect_worker(slot)
            scheduler.register_worker(slot, pid=os.getpid())
        in_flight.clear()
        _shutdown_now(executor)
        return self._factory()


def _attempt_payload(job: dict, executor) -> dict:
    """The attempt payload of a ``job`` message, for this executor.

    The job's trace context rides in the payload, so spans in a pool
    process join the campaign's tree.  An injected crash may hard-exit
    only a process the executor can replace.
    """
    payload = dict(job["payload"], trace=job.get("trace"))
    if "inject_mode" in payload:
        payload["allow_hard_crash"] = getattr(
            executor, "supports_crash_isolation", True
        )
    return payload


def _shutdown_now(executor) -> None:
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 — a broken pool may refuse shutdown
        pass
