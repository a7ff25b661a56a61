"""Single-process campaign execution: the inline reference driver.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into
finished :class:`~repro.campaign.store.JobRecord` rows on the caller's
thread.  It holds no campaign state machine of its own.  It submits the
campaign to a :class:`~repro.cluster.scheduler.ClusterScheduler`,
registers itself as the one worker, and then, job by job, takes a
lease (``request_lease``), runs
:func:`~repro.campaign.executor.run_attempt`, persists the terminal
record with :func:`repro.cluster.worker.finish_job` (the helper socket
workers use) and reports the outcome with ``handle_result``.  Per-job
timeouts, retries with exponential backoff, attempt charging and
finalize are therefore exactly those of a multi-process run.

Multi-process campaigns (``repro campaign run``, ``repro cluster
run``) run on the forked worker fleet of
:func:`repro.cluster.run_cluster`; a job's metrics are a pure function
of ``(experiment, params, seed)``, so both give the same records.  This
driver is what in-process callers (the ABL-CAT claim, the unit tests)
use.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.campaign.executor import run_attempt
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs import tracectx

__all__ = ["CampaignResult", "CampaignRunner"]

WORKER_ID = "inline"


@dataclass
class CampaignResult:
    """What one campaign invocation did, in aggregate."""

    counts: dict = field(default_factory=dict)
    skipped: int = 0
    elapsed_seconds: float = 0.0

    @classmethod
    def from_outcome(cls, outcome: dict) -> "CampaignResult":
        """The aggregate of a :func:`repro.cluster.run_cluster` outcome."""
        counts = dict(outcome["counts"])
        return cls(
            skipped=counts.pop("skipped", 0),
            counts=counts,
            elapsed_seconds=outcome["elapsed_seconds"],
        )

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
    """Drives one campaign to completion against a result store, on
    the caller's thread.

    Args:
        spec: the campaign to run.
        store: where records and the manifest live.
        on_event: optional callback receiving human-readable progress
            lines.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self._on_event = on_event

    def run(self, resume: bool = False) -> CampaignResult:
        """Execute every job that has no record yet; return aggregate
        counts.  With ``resume`` an existing campaign directory is
        continued instead of rejected."""
        # Deferred: the repro.cluster package imports repro.campaign.
        from repro.cluster.scheduler import ClusterScheduler
        from repro.cluster.worker import finish_job

        start = time.monotonic()
        scheduler = ClusterScheduler(on_event=self._on_event)
        scheduler.register_worker(WORKER_ID, pid=os.getpid())
        campaign_id = scheduler.submit(self.spec, self.store.root, resume=resume)
        exec_ = scheduler.campaigns[campaign_id]
        try:
            while scheduler.active():
                job = scheduler.request_lease(WORKER_ID)
                if job is None:  # every pending job is backing off
                    time.sleep(scheduler.idle_retry_after())
                    continue
                # As a socket worker does: the job's spans parent to
                # the scheduler's campaign span.
                with tracectx.adopted(job.get("trace")):
                    outcome = run_attempt(job["payload"])
                    result = finish_job(self.store, WORKER_ID, job, outcome)
                scheduler.handle_result(WORKER_ID, result)
        except KeyboardInterrupt:
            scheduler.interrupt(campaign_id)
            raise
        finally:
            obs.flush()
        return CampaignResult(
            counts=dict(exec_.counts),
            skipped=exec_.skipped,
            elapsed_seconds=time.monotonic() - start,
        )
