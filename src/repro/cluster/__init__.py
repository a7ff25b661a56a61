"""Distributed campaign execution: scheduler, worker protocol, service.

The **scheduler** (:mod:`repro.cluster.scheduler`) is the one campaign
state machine: job expansion, a work-stealing lease queue with
heartbeat-backed crash recovery (:mod:`repro.cluster.queue`), retry
accounting, and the shard-merge finalize.  **Workers**
(:mod:`repro.cluster.worker`) own execution via the shared
:mod:`repro.campaign.executor` core and write their records to
per-worker ``shard-<id>/`` sub-stores.  The two talk a JSON-lines
protocol over TCP or a Unix socket (:mod:`repro.cluster.protocol`),
served by the asyncio shell in :mod:`repro.cluster.service` — one-shot
(:func:`~repro.cluster.service.run_cluster`, with forked local workers:
``repro campaign run|resume`` and ``repro cluster run``) or as a
long-lived campaign service (``repro cluster serve`` +
``submit``/``status``/``cancel``).  This is the one multi-process
transport; the inline :class:`~repro.campaign.runner.CampaignRunner`
drives the same scheduler on the caller's thread.

The determinism contract carries over unchanged: job metrics are a
pure function of ``(experiment, params, seed)``, so the same spec
digests identically (:func:`repro.campaign.store.metrics_digest`)
whether it ran inline, on one worker, or on N workers with a mid-run
crash.  See ``docs/cluster.md``.
"""

from repro._lazy import lazy_exports

# Imported on first access: a worker process loads the protocol and
# its own loop, not the asyncio server or the scheduler core.
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.cluster.protocol": (
            "Endpoint", "MessageStream", "ProtocolError", "parse_endpoint",
        ),
        "repro.cluster.queue": ("Lease", "LeaseQueue", "QueuedJob"),
        "repro.cluster.scheduler": (
            "CampaignExec", "ClusterScheduler", "WorkerInfo",
        ),
        "repro.cluster.service": (
            "SchedulerServer", "control_request", "run_cluster", "serve",
        ),
        "repro.cluster.worker": ("ClusterWorker", "default_worker_id"),
    },
)
