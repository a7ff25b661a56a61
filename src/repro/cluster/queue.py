"""The scheduler's work-stealing lease queue.

Jobs sit in a pending list until any worker asks for work (that *is*
the work stealing: there is no per-worker assignment, the next free
worker takes the next eligible job).  A leased job is invisible to
other workers until it is resolved, its lease expires or its worker
disconnects.  The queue is the one place campaign retries are
computed: :meth:`LeaseQueue.retry` charges an attempt and applies the
exponential backoff, whoever runs the job.

The clock is injected so every lease-expiry path is unit-testable
without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.campaign.spec import JobSpec


@dataclass
class QueuedJob:
    """One job's place in the retry state machine."""

    job: JobSpec
    position: int  # index in spec expansion order (fault-injection anchor)
    attempt: int = 0  # 0-based; records store attempt + 1
    eligible_at: float = 0.0  # clock time before which it is held back
    # Clock time the job (re-)became eligible to run: submission time
    # initially, the end of the backoff hold after a retry.  Lease time
    # minus this is the enqueue→lease wait the scheduler feeds into the
    # ``cluster.lease_wait_seconds`` histogram — deliberately excluding
    # deliberate backoff delay, which is accounted separately.
    enqueued_at: float = 0.0


@dataclass
class Lease:
    """A job checked out to one worker, with an expiry."""

    queued: QueuedJob
    worker_id: str
    lease_id: str
    issued_at: float
    expires_at: float


@dataclass
class LeaseQueue:
    """Pending + leased + done bookkeeping for one campaign.

    Args:
        jobs: pending jobs in deterministic (expansion) order.
        max_retries: attempts beyond the first before a job is terminal.
        retry_backoff: base of the exponential backoff; the delay
            doubles with every charged attempt (see :meth:`retry`).
        lease_seconds: how long a lease lives between heartbeats.
        clock: monotonic time source (injected in tests).
    """

    jobs: list
    max_retries: int = 0
    retry_backoff: float = 0.0
    lease_seconds: float = 30.0
    clock: Callable[[], float] = time.monotonic
    _pending: list = field(init=False)
    _leases: dict = field(init=False, default_factory=dict)  # job_id -> Lease
    _done: set = field(init=False, default_factory=set)
    _lease_seq: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._pending = list(self.jobs)

    # -- introspection --------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def leased_count(self) -> int:
        return len(self._leases)

    @property
    def done_count(self) -> int:
        return len(self._done)

    def held_by(self, worker_id: str) -> int:
        """How many leases ``worker_id`` holds now."""
        return sum(1 for lease in self._leases.values() if lease.worker_id == worker_id)

    def drained(self) -> bool:
        """Every job accounted for — nothing pending, nothing leased."""
        return not self._pending and not self._leases

    def next_eligible_in(self) -> Optional[float]:
        """Seconds until the soonest backoff hold expires (``None``
        when nothing is pending; ``0`` when work is ready now)."""
        if not self._pending:
            return None
        now = self.clock()
        return max(0.0, min(q.eligible_at for q in self._pending) - now)

    def is_final_attempt(self, queued: QueuedJob) -> bool:
        """Whether a failure of this attempt is terminal (retries
        exhausted) — the worker uses this to decide record writing."""
        return queued.attempt >= self.max_retries

    # -- the lease lifecycle --------------------------------------------
    def lease(self, worker_id: str) -> Optional[Lease]:
        """Check the next eligible pending job out to ``worker_id``."""
        now = self.clock()
        index = next(
            (i for i, q in enumerate(self._pending) if q.eligible_at <= now),
            None,
        )
        if index is None:
            return None
        queued = self._pending.pop(index)
        self._lease_seq += 1
        lease = Lease(
            queued=queued,
            worker_id=worker_id,
            lease_id=f"{queued.job.job_id}.{self._lease_seq}",
            issued_at=now,
            expires_at=now + self.lease_seconds,
        )
        self._leases[queued.job.job_id] = lease
        return lease

    def heartbeat(self, worker_id: str) -> int:
        """Extend every lease this worker holds; returns how many."""
        now = self.clock()
        extended = 0
        for lease in self._leases.values():
            if lease.worker_id == worker_id:
                lease.expires_at = now + self.lease_seconds
                extended += 1
        return extended

    def resolve(
        self, job_id: str, worker_id: str, lease_id: str
    ) -> Optional[QueuedJob]:
        """Claim lease ``lease_id`` of ``job_id`` back on a result from
        ``worker_id``.

        Returns the queued job when that lease is live and held by this
        worker, else ``None`` — a *stale* completion (the job was
        already rescheduled or finished elsewhere, or the result names
        another lease), which callers must treat as a no-op so
        duplicate completions stay idempotent.
        """
        lease = self._leases.get(job_id)
        if lease is None or (lease.worker_id, lease.lease_id) != (worker_id, lease_id):
            return None
        del self._leases[job_id]
        return lease.queued

    def mark_done(self, job_id: str) -> None:
        """Record a terminal outcome (ok or exhausted failure)."""
        self._done.add(job_id)

    def retry(self, queued: QueuedJob) -> float:
        """Charge a failed attempt and requeue it behind its backoff
        hold; returns the applied delay.  Caller must have checked
        :meth:`is_final_attempt` first."""
        delay = self.retry_backoff * (2**queued.attempt)
        queued.attempt += 1
        queued.eligible_at = self.clock() + delay
        queued.enqueued_at = queued.eligible_at
        self._pending.append(queued)
        return delay

    def expire(self) -> list[Lease]:
        """Remove and return every lease past its expiry (dead worker
        suspected).  The caller charges each one attempt."""
        now = self.clock()
        expired = [
            lease for lease in self._leases.values() if lease.expires_at <= now
        ]
        for lease in expired:
            del self._leases[lease.queued.job.job_id]
        return expired

    def clear_pending(self) -> int:
        """Drop every pending job (campaign cancellation); returns how
        many were dropped.  Live leases are left to expire or resolve."""
        dropped = len(self._pending)
        self._pending.clear()
        return dropped

    def release_worker(self, worker_id: str) -> list[Lease]:
        """Remove and return every lease a (disconnected) worker held.

        Faster than waiting for expiry: a closed connection is proof of
        death, so the jobs go back immediately."""
        released = [
            lease
            for lease in self._leases.values()
            if lease.worker_id == worker_id
        ]
        for lease in released:
            del self._leases[lease.queued.job.job_id]
        return released
