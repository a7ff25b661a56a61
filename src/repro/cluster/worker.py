"""The cluster worker: lease, execute, record, repeat.

A worker is a plain blocking client of the scheduler.  Jobs run on the
worker's **main thread** so the per-job ``SIGALRM`` wall-clock budget
from :func:`repro.campaign.executor.execute_payload` keeps working;
heartbeats ride a daemon thread (the
:class:`~repro.cluster.protocol.MessageStream` send lock keeps the two
from interleaving on the wire).

Record-writing split (the determinism-critical part), implemented by
:func:`finish_job` for every transport that executes leased jobs:

- ``ok`` outcomes and **final**-attempt failures are written by the
  worker to its store (a socket worker's own ``shard-<worker_id>/``
  sub-store) *before* the result is reported, so a scheduler crash
  right after execution never loses a finished job;
- non-final failures produce no record — the scheduler requeues the
  job with backoff;
- a worker that dies mid-job writes nothing, and the scheduler's lease
  expiry / disconnect handling charges the attempt.

Observability: a worker started by hand self-activates from the
``REPRO_OBS`` environment variable at import (the standard obs
mechanism); the one-shot ``repro cluster run`` forks its workers and
points each at its sink directly — with ``--obs-shards`` at
``<store>/shard-<worker_id>/obs.jsonl``, so a sharded campaign is
watchable live with ``repro obs watch '<store>/shard-*/obs.jsonl'``.
Each ``job`` message may carry the campaign's trace context; the worker
adopts it for exactly that job (:func:`repro.obs.tracectx.adopted`), so
its ``campaign.job`` spans parent to the scheduler's campaign span and
``obs report --trace`` over the merged sinks shows one tree.
"""

from __future__ import annotations

import os
import threading
import uuid
from typing import Callable, Optional

from repro import obs
from repro.campaign.executor import AttemptOutcome, job_record, run_attempt
from repro.campaign.store import ResultStore
from repro.cluster import protocol
from repro.cluster.protocol import Endpoint, MessageStream
from repro.obs import tracectx


def finish_job(
    store: ResultStore, worker_id: str, job: dict, outcome: AttemptOutcome
) -> dict:
    """Persist a leased job's terminal outcome; return its ``result``
    message.

    ``job`` is the scheduler's ``job`` message.  An ok outcome, or any
    outcome of the job's final attempt, is appended to ``store`` before
    the result exists; a non-final failure writes nothing.  The caller
    reports the result (``ClusterScheduler.handle_result``).
    """
    if outcome.ok or job.get("final"):
        store.root.mkdir(parents=True, exist_ok=True)
        store.append(job_record(job, outcome))
    result = {
        "type": protocol.MSG_RESULT,
        "worker_id": worker_id,
        "campaign_id": job["campaign_id"],
        "lease_id": job["lease_id"],
        "job_id": job["job_id"],
        "status": outcome.status,
        "duration": outcome.duration,
    }
    if outcome.error is not None:
        result["error"] = outcome.error
    if outcome.timeout_enforced is not None:
        result["timeout_enforced"] = outcome.timeout_enforced
    if job.get("trace") is not None:
        result["trace"] = job["trace"]
    return result


def default_worker_id() -> str:
    """A collision-free worker name: host-ish pid plus random tail."""
    return f"w{os.getpid()}-{uuid.uuid4().hex[:6]}"


class ClusterWorker:
    """One worker process's client loop.

    Args:
        endpoint: where the scheduler listens.
        worker_id: stable name; also the shard directory suffix.
        on_event: optional human-readable progress callback.
        max_jobs: stop after this many executed jobs (test hook).
    """

    def __init__(
        self,
        endpoint: Endpoint,
        worker_id: Optional[str] = None,
        on_event: Optional[Callable[[str], None]] = None,
        max_jobs: Optional[int] = None,
    ) -> None:
        self.endpoint = endpoint
        self.worker_id = worker_id or default_worker_id()
        self._on_event = on_event
        self._max_jobs = max_jobs
        self._stop = threading.Event()
        self.jobs_done = 0

    def _emit(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    # -- heartbeats ------------------------------------------------------
    def _heartbeat_loop(self, stream: MessageStream, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                stream.send(
                    {"type": protocol.MSG_HEARTBEAT, "worker_id": self.worker_id}
                )
            except OSError:
                # Scheduler gone; the main loop will see EOF and exit.
                self._stop.set()
                return

    # -- job execution ---------------------------------------------------
    def _run_job(self, stream: MessageStream, message: dict) -> None:
        attempt = int(message["payload"].get("attempt", 0)) + 1
        # Adopt the campaign's trace for exactly this job: a parked
        # worker serves many campaigns, so the context is per-lease,
        # not per-process.  The job's spans (and the shard store's)
        # then parent to the scheduler's campaign span.
        with tracectx.adopted(message.get("trace")):
            outcome = run_attempt(message["payload"])
            shard = ResultStore(message["store_root"]).shard_store(
                self.worker_id
            )
            result = finish_job(shard, self.worker_id, message, outcome)
        self.jobs_done += 1
        obs.counter_add("cluster.worker_jobs")
        stream.send(result)
        self._emit(
            f"{outcome.status} {message['job_id']} "
            f"(attempt {attempt}, {outcome.duration:.2f}s)"
        )

    # -- the main loop ---------------------------------------------------
    def run(self) -> int:
        """Serve until drained or disconnected; returns jobs executed."""
        sock = self.endpoint.connect()
        stream = MessageStream(sock)
        heartbeat_thread = None
        try:
            stream.send(
                {
                    "type": protocol.MSG_REGISTER,
                    "worker_id": self.worker_id,
                    "pid": os.getpid(),
                    "protocol": protocol.PROTOCOL_VERSION,
                }
            )
            ack = stream.recv()
            if ack is None or ack.get("type") != protocol.MSG_REGISTERED:
                raise protocol.ProtocolError(
                    f"expected {protocol.MSG_REGISTERED!r}, got {ack!r}"
                )
            interval = float(ack.get("heartbeat_seconds", 5.0))
            heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(stream, interval),
                daemon=True,
                name=f"heartbeat-{self.worker_id}",
            )
            heartbeat_thread.start()
            self._emit(
                f"worker {self.worker_id} registered at {self.endpoint}"
            )

            while not self._stop.is_set():
                if (
                    self._max_jobs is not None
                    and self.jobs_done >= self._max_jobs
                ):
                    break
                stream.send(
                    {"type": protocol.MSG_LEASE, "worker_id": self.worker_id}
                )
                message = stream.recv()
                if message is None:
                    self._emit("scheduler connection closed; exiting")
                    break
                kind = message.get("type")
                if kind == protocol.MSG_JOB:
                    self._run_job(stream, message)
                elif kind == protocol.MSG_DRAIN:
                    self._emit("drained; exiting")
                    break
                else:
                    raise protocol.ProtocolError(
                        f"unexpected message type {kind!r} for a lease"
                    )
            try:
                stream.send(
                    {"type": protocol.MSG_GOODBYE, "worker_id": self.worker_id}
                )
            except OSError:
                pass
            return self.jobs_done
        finally:
            self._stop.set()
            if heartbeat_thread is not None:
                heartbeat_thread.join(timeout=1.0)
            stream.close()
            obs.flush()
