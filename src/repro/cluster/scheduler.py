"""The campaign scheduler: campaigns in, leases out, records merged.

This is the one owner of the campaign state machine.  The scheduler
owns job expansion, the lease queue, retry/backoff accounting,
terminal crash records and finalize; workers own execution
(:func:`repro.campaign.executor.run_attempt`) and persist the terminal
record of each leased job (:func:`repro.cluster.worker.finish_job`).
Crash recovery is one rule: a lease that expires, or a worker that
disconnects, charges the job exactly one attempt and either requeues
it with exponential backoff or records the terminal crash.

One transport drives it across processes: the asyncio
:class:`~repro.cluster.service.SchedulerServer` serves socket workers,
forked by :func:`~repro.cluster.service.run_cluster` (``repro campaign
run|resume``, ``repro cluster run``) or started by hand against
``repro cluster serve``.  The inline
:class:`~repro.campaign.runner.CampaignRunner` calls the same methods
on the caller's thread, as a single-process reference.

The class is deliberately synchronous with an injected clock, so every
failure path (lease expiry, duplicate completion, mid-campaign cancel)
unit-tests without sockets or sleeps.

Multiple campaigns queue FIFO and drain through the same worker fleet:
a lease request scans campaigns in submission order and takes the
first eligible job, which is what lets ``repro cluster serve`` accept
a second submission while the first is still running.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.campaign import executor as executor_mod
from repro.obs import tracectx
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import STATUS_CRASHED, STATUS_OK, ResultStore
from repro.cluster.queue import Lease, LeaseQueue, QueuedJob

STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_CANCELLED = "cancelled"
STATE_INTERRUPTED = "interrupted"

SCHEDULER_SHARD = "scheduler"


@dataclass
class WorkerInfo:
    """What the scheduler knows about one registered worker."""

    worker_id: str
    pid: int = 0
    last_seen: float = 0.0
    connected: bool = True
    jobs_done: int = 0


@dataclass
class CampaignExec:
    """One submitted campaign's execution state."""

    campaign_id: str
    spec: CampaignSpec
    store: ResultStore
    queue: LeaseQueue
    state: str = STATE_RUNNING
    counts: dict = field(default_factory=dict)
    retries: int = 0
    skipped: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None
    # Trace context: the campaign's trace id and the id reserved for
    # its span.  The span event itself is emitted at finalize
    # (duration known); reserving the id at submit lets every job
    # message carry it, so worker spans parent to a span that does not
    # exist in any sink yet.  ``parent_span`` is the submitter's open
    # span, or the inherited remote parent, if any.
    trace_id: str = ""
    span_id: str = ""
    parent_span: Optional[str] = None
    span_wall: float = 0.0

    def bump(self, status: str) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1

    def wire_trace(self) -> Optional[dict]:
        """The ``trace`` payload for this campaign's lease messages."""
        if not self.trace_id:
            return None
        return {"trace": self.trace_id, "parent": self.span_id or None}


class ClusterScheduler:
    """Synchronous scheduler core (transport-free, clock-injected).

    Args:
        lease_seconds: lease lifetime between heartbeats; expiry charges
            the leased job one attempt.
        heartbeat_seconds: interval workers are told to heartbeat at
            (must be comfortably under ``lease_seconds``).
        clock: monotonic time source, injected in tests.
        on_event: optional human-readable progress callback (the CLI
            prints these lines).
    """

    def __init__(
        self,
        lease_seconds: float = 30.0,
        heartbeat_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = heartbeat_seconds
        self.clock = clock
        self.campaigns: dict[str, CampaignExec] = {}
        self.workers: dict[str, WorkerInfo] = {}
        self._order: list[str] = []
        self._submit_seq = 0
        self._on_event = on_event

    def emit(self, message: str) -> None:
        """Hand one human-readable progress line to ``on_event``."""
        if self._on_event is not None:
            self._on_event(message)

    # -- campaign lifecycle ---------------------------------------------
    def submit(
        self, spec: CampaignSpec, store_root, resume: bool = False
    ) -> str:
        """Open (or resume) a campaign and queue its unfinished jobs.

        Inherits the store's spec-hash check: submitting a spec against
        a directory holding a different campaign raises
        :class:`repro.campaign.store.SpecMismatchError`.
        """
        store = ResultStore(store_root)
        store.open_campaign(spec, resume=resume)
        all_jobs = spec.jobs()
        # Records may still be sitting un-merged in shards from an
        # earlier scheduler that died before finalize — resume must not
        # re-run those jobs (and merge will reconcile them).
        done_ids = store.completed_ids(include_shards=True)
        now = self.clock()
        pending = [
            QueuedJob(job=job, position=position, enqueued_at=now)
            for position, job in enumerate(all_jobs)
            if job.job_id not in done_ids
        ]
        self._submit_seq += 1
        campaign_id = f"c{self._submit_seq}-{spec.name}"
        queue = LeaseQueue(
            jobs=pending,
            max_retries=spec.max_retries,
            retry_backoff=spec.retry_backoff,
            lease_seconds=self.lease_seconds,
            clock=self.clock,
        )
        exec_ = CampaignExec(
            campaign_id=campaign_id,
            spec=spec,
            store=store,
            queue=queue,
            skipped=len(all_jobs) - len(pending),
            started_at=self.clock(),
        )
        if obs.enabled():
            # One trace per campaign; join an inherited process trace
            # (REPRO_OBS_TRACE) if the scheduler itself runs inside one,
            # and hang the campaign span under the submitter's open span.
            exec_.trace_id = (
                tracectx.current_trace_id() or tracectx.new_trace_id()
            )
            exec_.span_id = obs.new_span_id()
            exec_.parent_span = tracectx.current_parent()
            exec_.span_wall = time.time()
        self.campaigns[campaign_id] = exec_
        self._order.append(campaign_id)
        obs.counter_add("cluster.campaigns_submitted")
        obs.observe("cluster.queue_depth", len(pending))
        obs.log(
            "info",
            "campaign started",
            campaign=spec.name,
            campaign_id=campaign_id,
            experiment=spec.experiment,
            jobs=len(pending),
            workers=len([w for w in self.workers.values() if w.connected]),
        )
        self.emit(
            f"submitted {campaign_id}: {len(pending)} jobs "
            f"({exec_.skipped} already recorded)"
        )
        if (
            spec.timeout_seconds is not None
            and not executor_mod.alarm_supported()
        ):
            self._warn_unenforced(spec)
        if not pending:
            self._finalize(exec_)
        return campaign_id

    def cancel(self, campaign_id: str) -> bool:
        """Drop a campaign's pending jobs and finalize what it has."""
        exec_ = self.campaigns.get(campaign_id)
        if exec_ is None or exec_.state != STATE_RUNNING:
            return False
        dropped = exec_.queue.clear_pending()
        exec_.counts["cancelled"] = dropped + exec_.queue.leased_count
        exec_.state = STATE_CANCELLED
        self._finalize(exec_, state=STATE_CANCELLED)
        obs.counter_add("cluster.campaigns_cancelled")
        self.emit(f"cancelled {campaign_id} ({dropped} jobs dropped)")
        return True

    def interrupt(self, campaign_id: str) -> None:
        """Stop a campaign whose process was interrupted, unfinalized
        (a no-op once it has ended).

        Leases still out are not charged and their late results are
        stale, so the store and the shards hold only records a worker
        finished, and ``campaign resume`` runs the rest."""
        exec_ = self.campaigns[campaign_id]
        if exec_.state != STATE_RUNNING:
            return
        self._end(exec_, STATE_INTERRUPTED)
        done = exec_.queue.done_count
        obs.log(
            "warning",
            "campaign interrupted",
            campaign=exec_.spec.name,
            records_checkpointed=done + exec_.skipped,
            pending=exec_.queue.pending_count + exec_.queue.leased_count,
        )
        obs.flush()
        self.emit(
            f"interrupted: {done} records checkpointed this run; "
            f"continue with `campaign resume {exec_.store.root}`"
        )

    def _end(self, exec_: CampaignExec, state: str) -> None:
        """Leave the running state and emit the campaign's span."""
        exec_.state = state
        exec_.finished_at = self.clock()
        if exec_.span_id:
            obs.emit_span_event(
                "cluster.campaign",
                ts=exec_.span_wall,
                dur=max(0.0, exec_.finished_at - exec_.started_at),
                span_id=exec_.span_id,
                parent=exec_.parent_span,
                trace=exec_.trace_id,
                status="ok" if state == STATE_DONE else state,
                campaign=exec_.spec.name,
                campaign_id=exec_.campaign_id,
                experiment=exec_.spec.experiment,
            )

    def _finalize(self, exec_: CampaignExec, state: str = STATE_DONE) -> None:
        """Merge shards into the main store and stamp the manifest —
        after this, ``campaign report``/``diag``/``obs`` read the merged
        directory exactly as if the inline runner had produced it."""
        # Merge/finalize spans attach under the campaign span (managed
        # manually, so it is never on this thread's stack).
        with tracectx.adopted(exec_.wire_trace()):
            merged = exec_.store.merge_shards()
            exec_.store.finalize(cancelled=exec_.counts.get("cancelled", 0))
        counts = dict(exec_.counts)
        counts["skipped"] = exec_.skipped
        self._end(exec_, state)
        obs.log(
            "info",
            "campaign finalized",
            campaign_id=exec_.campaign_id,
            state=state,
            merged_records=merged,
            **{k: v for k, v in counts.items()},
        )
        obs.flush()
        self.emit(
            f"finalized {exec_.campaign_id}: "
            + (", ".join(f"{v} {k}" for k, v in sorted(counts.items())) or "empty")
        )

    def active(self) -> bool:
        """Whether any campaign is still running."""
        return any(
            e.state == STATE_RUNNING for e in self.campaigns.values()
        )

    # -- worker lifecycle -----------------------------------------------
    def register_worker(self, worker_id: str, pid: int = 0) -> dict:
        """Admit a worker; returns the ``registered`` message body.

        Not announced on ``on_event``: a serving scheduler
        (:mod:`repro.cluster.service`) announces the workers that
        connect to it; a one-shot run's own workers stay quiet."""
        self.workers[worker_id] = WorkerInfo(
            worker_id=worker_id, pid=pid, last_seen=self.clock()
        )
        obs.counter_add("cluster.workers_registered")
        return {
            "heartbeat_seconds": self.heartbeat_seconds,
            "lease_seconds": self.lease_seconds,
        }

    def is_connected(self, worker_id: str) -> bool:
        """Whether ``worker_id`` is registered, not yet disconnected and
        heard from within a lease: a holder silent that long (its host
        died behind a half-open socket) is as gone as its leases."""
        info = self.workers.get(worker_id)
        return (
            info is not None
            and info.connected
            and self.clock() - info.last_seen <= self.lease_seconds
        )

    def heartbeat(self, worker_id: str) -> None:
        """Refresh every lease the worker holds."""
        info = self.workers.get(worker_id)
        if info is not None:
            info.last_seen = self.clock()
        for exec_ in self.campaigns.values():
            if exec_.state == STATE_RUNNING:
                exec_.queue.heartbeat(worker_id)

    def disconnect_worker(self, worker_id: str) -> None:
        """A worker's connection dropped: its leases return to the
        queue *now* (a closed socket is proof of death — no need to
        wait out the lease)."""
        info = self.workers.get(worker_id)
        if info is None or not info.connected:
            return
        info.connected = False
        released = 0
        for exec_ in self.campaigns.values():
            if exec_.state != STATE_RUNNING:
                continue
            for lease in exec_.queue.release_worker(worker_id):
                self._charge(
                    exec_,
                    lease.queued,
                    STATUS_CRASHED,
                    f"worker {worker_id} disconnected mid-job",
                    lease=lease,
                )
                released += 1
            if exec_.queue.drained():
                self._finalize(exec_)
        if released:
            obs.counter_add("cluster.leases_released", released)
        self.emit(
            f"worker {worker_id} disconnected ({released} leases released)"
        )

    # -- the lease/result plane -----------------------------------------
    def request_lease(self, worker_id: str) -> Optional[dict]:
        """Hand the next eligible job to ``worker_id`` as a ``job``
        message body, or ``None`` when nothing is ready."""
        info = self.workers.get(worker_id)
        if info is not None:
            info.last_seen = self.clock()
        for campaign_id in self._order:
            exec_ = self.campaigns[campaign_id]
            if exec_.state != STATE_RUNNING:
                continue
            lease = exec_.queue.lease(worker_id)
            if lease is None:
                continue
            if obs.enabled():
                if lease.queued.enqueued_at:
                    obs.observe(
                        "cluster.lease_wait_seconds",
                        max(0.0, lease.issued_at - lease.queued.enqueued_at),
                    )
                obs.observe(
                    "cluster.queue_depth",
                    exec_.queue.pending_count + exec_.queue.leased_count,
                )
            return self._job_message(exec_, lease)
        return None

    def idle_retry_after(self) -> float:
        """How long an idle worker should wait before re-asking."""
        waits = [
            exec_.queue.next_eligible_in()
            for exec_ in self.campaigns.values()
            if exec_.state == STATE_RUNNING
        ]
        waits = [w for w in waits if w is not None]
        if not waits:
            return 0.2
        return min(0.2, max(0.02, min(waits)))

    def _job_message(self, exec_: CampaignExec, lease: Lease) -> dict:
        queued = lease.queued
        job = queued.job
        payload = {
            "job_id": job.job_id,
            "experiment": job.experiment,
            "params": job.params_dict(),
            "seed": job.seed,
            "timeout_seconds": exec_.spec.timeout_seconds,
            "attempt": queued.attempt,
        }
        inject = exec_.spec.inject_failures
        if inject is not None and inject.applies_to(
            job, queued.position, queued.attempt
        ):
            payload["inject_mode"] = inject.mode
        message = {
            "campaign_id": exec_.campaign_id,
            "lease_id": lease.lease_id,
            "job_id": job.job_id,
            "trial": job.trial,
            "payload": payload,
            "final": exec_.queue.is_final_attempt(queued),
            "store_root": str(exec_.store.root),
        }
        trace = exec_.wire_trace()
        if trace is not None:
            message["trace"] = trace
        return message

    def handle_result(self, worker_id: str, message: dict) -> None:
        """Consume one worker ``result``; stale completions (lease
        already rescheduled or unknown, campaign gone) are no-ops — the
        record the worker wrote is reconciled by dedupe at merge
        time."""
        exec_ = self.campaigns.get(message.get("campaign_id", ""))
        if exec_ is None or exec_.state != STATE_RUNNING:
            obs.counter_add("cluster.results_stale")
            return
        job_id = message.get("job_id", "")
        queued = exec_.queue.resolve(
            job_id, worker_id, message.get("lease_id", "")
        )
        if queued is None:
            obs.counter_add("cluster.results_stale")
            return
        if message.get("timeout_enforced") is False:
            self._warn_unenforced(exec_.spec)
        status = message.get("status", "")
        duration = float(message.get("duration", 0.0))
        if status == STATUS_OK:
            obs.counter_add("campaign.attempts")
            exec_.queue.mark_done(job_id)
            exec_.bump(STATUS_OK)
            info = self.workers.get(worker_id)
            if info is not None:
                info.jobs_done += 1
            obs.counter_add("campaign.ok")
            obs.observe("campaign.job_seconds", duration)
            self.emit(
                f"ok {job_id} via {worker_id} "
                f"({duration:.2f}s, attempt {queued.attempt + 1})"
            )
        else:
            # On a final attempt the worker already wrote the terminal
            # record to its store (it was told final=true on the lease).
            self._charge(exec_, queued, status, message.get("error"))
        if exec_.queue.drained():
            self._finalize(exec_)

    def _warn_unenforced(self, spec: CampaignSpec) -> None:
        if obs.warn_once(
            "campaign.timeout-unenforced",
            "per-job wall-clock budgets are not enforceable here "
            "(no SIGALRM or worker off the main thread); jobs may "
            "overrun their budget",
            timeout_seconds=spec.timeout_seconds,
        ):
            self.emit(
                "warning: per-job timeout cannot be enforced on this "
                "platform (no SIGALRM); budgets are advisory"
            )

    # -- the state machine -----------------------------------------------
    def _charge(
        self,
        exec_: CampaignExec,
        queued: QueuedJob,
        status: str,
        error: Optional[str],
        lease: Optional[Lease] = None,
    ) -> None:
        """Charge one failed attempt: requeue it with backoff, or make
        the failure terminal.  ``lease`` marks a dead lease (expired, or
        its worker disconnected): nobody reported on it, so a terminal
        crash record is written here, to the scheduler's own shard."""
        obs.counter_add("campaign.attempts")
        job_id = queued.job.job_id
        if not exec_.queue.is_final_attempt(queued):
            delay = exec_.queue.retry(queued)
            exec_.retries += 1
            obs.counter_add("campaign.retries")
            obs.observe("cluster.backoff_seconds", delay)
            self.emit(
                f"retry {job_id} (attempt {queued.attempt + 1}, "
                f"after {delay:.2f}s): {error}"
            )
            return
        if lease is not None:
            job = self._job_message(exec_, lease)
            outcome = executor_mod.failed_outcome(
                job["payload"],
                status,
                error,
                max(0.0, self.clock() - lease.issued_at),
            )
            shard = exec_.store.shard_store(SCHEDULER_SHARD)
            shard.root.mkdir(parents=True, exist_ok=True)
            shard.append(executor_mod.job_record(job, outcome))
        exec_.queue.mark_done(job_id)
        exec_.bump(status)
        obs.counter_add(f"campaign.{status}")
        obs.log(
            "warning",
            "job gave up",
            job_id=job_id,
            status=status,
            attempts=queued.attempt + 1,
            error=error,
        )
        self.emit(
            f"gave up on {job_id} after {queued.attempt + 1} "
            f"attempts: {error}"
        )

    def tick(self) -> None:
        """Periodic housekeeping: expire overdue leases (heartbeat
        loss ⇒ crash recovery) and finalize drained campaigns."""
        for exec_ in list(self.campaigns.values()):
            if exec_.state != STATE_RUNNING:
                continue
            for lease in exec_.queue.expire():
                obs.counter_add("cluster.leases_expired")
                self._charge(
                    exec_,
                    lease.queued,
                    STATUS_CRASHED,
                    f"lease expired (worker {lease.worker_id} "
                    f"missed heartbeats)",
                    lease=lease,
                )
            if exec_.queue.drained():
                self._finalize(exec_)

    # -- introspection ---------------------------------------------------
    def status_payload(self) -> dict:
        """The ``cluster status`` wire payload."""
        now = self.clock()
        return {
            "campaigns": [
                {
                    "campaign_id": e.campaign_id,
                    "name": e.spec.name,
                    "experiment": e.spec.experiment,
                    "state": e.state,
                    "store": str(e.store.root),
                    "pending": e.queue.pending_count,
                    "leased": e.queue.leased_count,
                    "done": e.queue.done_count,
                    "skipped": e.skipped,
                    "retries": e.retries,
                    "counts": dict(e.counts),
                    "elapsed_seconds": (
                        (e.finished_at or now) - e.started_at
                    ),
                }
                for cid in self._order
                for e in (self.campaigns[cid],)
            ],
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "pid": w.pid,
                    "connected": w.connected,
                    "jobs_done": w.jobs_done,
                    "last_seen_seconds_ago": max(0.0, now - w.last_seen),
                }
                for w in self.workers.values()
            ],
        }
