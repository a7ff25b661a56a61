"""One job attempt, executed wherever the work landed.

This is the execution core of every campaign worker: a forked or
hand-started :mod:`repro.cluster` socket worker calls
:func:`run_attempt` inside its own process, and the inline
:class:`~repro.campaign.runner.CampaignRunner` calls it on the
caller's thread.  Keeping it in one module is what makes the
determinism contract cheap to state: a job's metrics are a pure
function of ``(experiment, params, seed)``, so the same payload yields
bit-identical metrics whichever worker ran it.

The payload is a plain JSON-able dict (the ``payload`` of a scheduler
``job`` message):

``job_id, experiment, params, seed, attempt, timeout_seconds`` plus the
optional fault-injection field ``inject_mode``.  A worker runs the
attempt under the job message's trace context
(:func:`repro.obs.tracectx.adopted`), so the job's spans parent to the
scheduler's campaign span; nothing of it reaches the experiment
function.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.campaign.store import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    JobRecord,
)


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock budget."""


class WorkerCrash(Exception):
    """An injected worker crash (the spec's ``"crash"`` drill mode),
    recorded as ``crashed``.  A real worker death is a disconnect or an
    expired lease, which the scheduler charges."""


class InjectedFailure(Exception):
    """A failure forced by the spec's fault-injection drill."""


def alarm_supported() -> bool:
    """Whether this platform can enforce per-job wall-clock budgets
    (``SIGALRM`` exists — Windows and some embedded Pythons lack it).
    Split out so tests can stub the no-SIGALRM path."""
    return hasattr(signal, "SIGALRM")


def execute_payload(payload: dict) -> dict:
    """Run one job attempt and return its metrics, duration and
    whether its budget was enforced; a failure raises."""
    inject_mode = payload.get("inject_mode")
    if inject_mode == "crash":
        raise WorkerCrash("injected worker crash")
    if inject_mode == "exception":
        raise InjectedFailure(
            f"injected failure (attempt {payload['attempt']})"
        )

    from repro.campaign.experiments import get_experiment

    fn = get_experiment(payload["experiment"])
    timeout = payload.get("timeout_seconds")
    use_alarm = (
        timeout is not None
        and alarm_supported()
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {timeout}s budget")

    start = time.perf_counter()
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with obs.span(
            "campaign.job",
            job_id=payload.get("job_id"),
            experiment=payload["experiment"],
            attempt=payload["attempt"],
        ):
            metrics = fn(payload["params"], payload["seed"])
        if isinstance(metrics, dict):
            # Stream the job's numeric metrics into the sink so `repro
            # obs watch` can roll them live.  Reads the dict only —
            # the non-perturbation invariant holds.
            obs.publish_metrics(
                "campaign.job",
                metrics,
                job_id=payload.get("job_id"),
                experiment=payload["experiment"],
            )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # A worker outlives its jobs and may die without running exit
        # hooks (the SIGKILL drill); snapshots are cumulative per pid,
        # so flushing after every job keeps the sink's last-per-pid
        # merge correct without double counting.
        obs.flush()
    if not isinstance(metrics, dict):
        raise TypeError(
            f"experiment {payload['experiment']!r} returned "
            f"{type(metrics).__name__}, expected a metrics dict"
        )
    return {
        "metrics": metrics,
        "duration": time.perf_counter() - start,
        # None: no budget requested; False: budget silently unenforceable
        # on this platform/thread — the record carries it.
        "timeout_enforced": use_alarm if timeout is not None else None,
    }


def classify_failure(exc: BaseException) -> tuple[str, str]:
    """Map an attempt's exception to a ``(status, error)`` pair."""
    if isinstance(exc, JobTimeout):
        return STATUS_TIMEOUT, str(exc)
    if isinstance(exc, WorkerCrash):
        return STATUS_CRASHED, str(exc)
    return STATUS_FAILED, f"{type(exc).__name__}: {exc}"


@dataclass
class AttemptOutcome:
    """What one in-worker attempt produced, exception-free.

    ``status`` is one of the store's ``STATUS_*`` constants; ``metrics``
    is populated only on success.
    """

    status: str
    duration: float
    metrics: Optional[dict] = None
    error: Optional[str] = None
    timeout_enforced: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Whether the attempt produced usable metrics."""
        return self.status == STATUS_OK


def failed_outcome(
    payload: dict, status: str, error: str, duration: float
) -> AttemptOutcome:
    """The outcome of an attempt that failed before it could report
    ``timeout_enforced``: ``False`` when a budget was requested on a
    platform without ``SIGALRM``, else ``None`` (unknown)."""
    enforced: Optional[bool] = None
    if payload.get("timeout_seconds") is not None and not alarm_supported():
        enforced = False
    return AttemptOutcome(
        status=status,
        duration=duration,
        error=error,
        timeout_enforced=enforced,
    )


def run_attempt(payload: dict) -> AttemptOutcome:
    """Execute one attempt and fold any failure into the outcome.

    ``KeyboardInterrupt`` and ``SystemExit`` still propagate — a worker
    being told to die is not a job failure.
    """
    start = time.perf_counter()
    try:
        out = execute_payload(payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 — any job error is a job failure
        return failed_outcome(
            payload, *classify_failure(exc), time.perf_counter() - start
        )
    return AttemptOutcome(
        status=STATUS_OK,
        duration=out["duration"],
        metrics=out["metrics"],
        timeout_enforced=out["timeout_enforced"],
    )


def job_record(job: dict, outcome: AttemptOutcome) -> JobRecord:
    """The store record of one attempt of a leased job.

    ``job`` is a scheduler ``job`` message (see
    :mod:`repro.cluster.protocol`); its payload's 0-based ``attempt``
    becomes the record's 1-based ``attempts``.
    """
    payload = job["payload"]
    return JobRecord(
        job_id=job["job_id"],
        experiment=payload["experiment"],
        params=payload["params"],
        trial=int(job.get("trial", 0)),
        seed=payload["seed"],
        status=outcome.status,
        attempts=int(payload.get("attempt", 0)) + 1,
        duration_seconds=outcome.duration,
        metrics=outcome.metrics,
        error=outcome.error,
        timeout_enforced=outcome.timeout_enforced,
    )
