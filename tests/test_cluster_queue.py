"""LeaseQueue semantics: leases, heartbeats, expiry, backoff.

The queue's clock is injected, so every timing path — lease expiry,
heartbeat extension, retry-backoff holds — is exercised by advancing a
fake clock, never by sleeping.
"""

from repro.campaign import CampaignSpec
from repro.cluster import LeaseQueue, QueuedJob


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_queue(n=3, **kwargs):
    spec = CampaignSpec(
        name="q", experiment="test_echo", grid={"x": list(range(n))}
    )
    jobs = [
        QueuedJob(job=job, position=position)
        for position, job in enumerate(spec.jobs())
    ]
    clock = kwargs.pop("clock", FakeClock())
    queue = LeaseQueue(jobs=jobs, clock=clock, **kwargs)
    return queue, jobs, clock


class TestLeasing:
    def test_jobs_hand_out_in_expansion_order(self):
        queue, jobs, _ = make_queue(n=3)
        leased = [queue.lease("w").queued.job.job_id for _ in range(3)]
        assert leased == [q.job.job_id for q in jobs]
        assert queue.lease("w") is None  # nothing left

    def test_work_stealing_any_worker_takes_next(self):
        queue, jobs, _ = make_queue(n=2)
        first = queue.lease("w1")
        second = queue.lease("w2")
        assert first.queued.job.job_id == jobs[0].job.job_id
        assert second.queued.job.job_id == jobs[1].job.job_id
        assert queue.pending_count == 0
        assert queue.leased_count == 2

    def test_lease_ids_are_unique_per_checkout(self):
        queue, _, clock = make_queue(n=1, max_retries=1)
        first = queue.lease("w")
        queued = queue.resolve(first.queued.job.job_id, "w", first.lease_id)
        queue.retry(queued)
        second = queue.lease("w")
        assert first.lease_id != second.lease_id


class TestExpiry:
    def test_live_lease_does_not_expire(self):
        queue, _, clock = make_queue(n=1, lease_seconds=30.0)
        queue.lease("w")
        clock.advance(29.0)
        assert queue.expire() == []

    def test_overdue_lease_is_expired_and_removed(self):
        queue, _, clock = make_queue(n=1, lease_seconds=30.0)
        lease = queue.lease("w")
        clock.advance(31.0)
        assert queue.expire() == [lease]
        assert queue.leased_count == 0
        assert queue.expire() == []  # already collected

    def test_heartbeat_extends_every_lease_of_the_worker(self):
        queue, _, clock = make_queue(n=2, lease_seconds=30.0)
        queue.lease("w")
        queue.lease("w")
        clock.advance(20.0)
        assert queue.heartbeat("w") == 2
        clock.advance(20.0)  # 40s after issue, 20s after heartbeat
        assert queue.expire() == []

    def test_heartbeat_from_stranger_extends_nothing(self):
        queue, _, _ = make_queue(n=1)
        queue.lease("w")
        assert queue.heartbeat("other") == 0


class TestResolve:
    def test_resolve_returns_queued_exactly_once(self):
        queue, jobs, _ = make_queue(n=1)
        lease = queue.lease("w")
        job_id = lease.queued.job.job_id
        assert queue.resolve(job_id, "w", lease.lease_id) is lease.queued
        # A duplicate completion is stale — idempotent no-op.
        assert queue.resolve(job_id, "w", lease.lease_id) is None

    def test_resolve_by_wrong_worker_is_stale(self):
        queue, _, _ = make_queue(n=1)
        lease = queue.lease("w1")
        job_id = lease.queued.job.job_id
        assert queue.resolve(job_id, "w2", lease.lease_id) is None
        # Nor does the holder's result for another lease of the job.
        assert queue.resolve(job_id, "w1", f"{job_id}.99") is None
        # The real holder can still resolve.
        assert queue.resolve(job_id, "w1", lease.lease_id) is not None

    def test_release_worker_returns_only_their_leases(self):
        queue, _, _ = make_queue(n=3)
        queue.lease("dead")
        kept = queue.lease("alive")
        queue.lease("dead")
        released = queue.release_worker("dead")
        assert len(released) == 2
        assert all(lease.worker_id == "dead" for lease in released)
        assert queue.leased_count == 1
        assert queue.resolve(kept.queued.job.job_id, "alive", kept.lease_id) is not None


class TestRetryBackoff:
    def test_backoff_matches_runner_semantics(self):
        """delay = retry_backoff * 2**attempt, then attempt += 1 —
        byte-for-byte the single-host runner's accounting."""
        queue, _, clock = make_queue(n=1, max_retries=3, retry_backoff=0.1)
        queued = _resolve_next(queue, "w")
        assert queue.retry(queued) == 0.1  # attempt 0 -> 0.1 * 2**0
        assert queued.attempt == 1
        clock.advance(1.0)
        queued = _resolve_next(queue, "w")
        assert queue.retry(queued) == 0.2  # attempt 1 -> 0.1 * 2**1
        assert queued.attempt == 2

    def test_backoff_hold_gates_the_lease(self):
        queue, _, clock = make_queue(n=1, max_retries=1, retry_backoff=5.0)
        queued = _resolve_next(queue, "w")
        queue.retry(queued)
        assert queue.lease("w") is None  # held back
        assert 0.0 < queue.next_eligible_in() <= 5.0
        clock.advance(5.0)
        assert queue.next_eligible_in() == 0.0
        assert queue.lease("w") is not None

    def test_is_final_attempt_tracks_max_retries(self):
        queue, _, _ = make_queue(n=1, max_retries=2)
        queued = queue.lease("w").queued
        assert not queue.is_final_attempt(queued)  # attempt 0 of 0..2
        queued.attempt = 2
        assert queue.is_final_attempt(queued)


class TestBookkeeping:
    def test_drained_requires_no_pending_and_no_leases(self):
        queue, _, _ = make_queue(n=1)
        assert not queue.drained()
        lease = queue.lease("w")
        assert not queue.drained()  # leased still counts as in flight
        queue.resolve(lease.queued.job.job_id, "w", lease.lease_id)
        queue.mark_done(lease.queued.job.job_id)
        assert queue.drained()
        assert queue.done_count == 1

    def test_clear_pending_leaves_live_leases(self):
        queue, _, _ = make_queue(n=3)
        queue.lease("w")
        assert queue.clear_pending() == 2
        assert queue.pending_count == 0
        assert queue.leased_count == 1

    def test_next_eligible_in_none_when_empty(self):
        queue, _, _ = make_queue(n=1)
        queue.lease("w")
        assert queue.next_eligible_in() is None


def _resolve_next(queue, worker_id):
    """Lease the next job to ``worker_id`` and claim it back."""
    lease = queue.lease(worker_id)
    return queue.resolve(lease.queued.job.job_id, worker_id, lease.lease_id)
