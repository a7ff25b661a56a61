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
(``repro cluster run``) or as a long-lived campaign service (``repro
cluster serve`` + ``submit``/``status``/``cancel``).  The local
:class:`~repro.campaign.runner.CampaignRunner` is the scheduler's
other transport: its executor-pool slots are the workers.

The determinism contract carries over unchanged: job metrics are a
pure function of ``(experiment, params, seed)``, so the same spec
digests identically (:func:`repro.campaign.store.metrics_digest`)
whether it ran on the local pool, one worker, or N workers with a
mid-run crash.  See ``docs/cluster.md``.
"""

from repro.cluster.protocol import (
    Endpoint,
    MessageStream,
    ProtocolError,
    parse_endpoint,
)
from repro.cluster.queue import Lease, LeaseQueue, QueuedJob
from repro.cluster.scheduler import (
    CampaignExec,
    ClusterScheduler,
    WorkerInfo,
)
from repro.cluster.service import (
    SchedulerServer,
    control_request,
    run_cluster,
    serve,
    spawn_worker,
)
from repro.cluster.worker import ClusterWorker, default_worker_id

__all__ = [
    "Endpoint",
    "MessageStream",
    "ProtocolError",
    "parse_endpoint",
    "Lease",
    "LeaseQueue",
    "QueuedJob",
    "CampaignExec",
    "ClusterScheduler",
    "WorkerInfo",
    "SchedulerServer",
    "control_request",
    "run_cluster",
    "serve",
    "spawn_worker",
    "ClusterWorker",
    "default_worker_id",
]
