"""Experiment-campaign engine: declarative sweeps, parallel execution,
persistent results.

Every figure in the reproduction is backed by a one-shot script; scaling
any of them — accuracy-vs-noise sweeps, many-trial confidence intervals
on the SGX attack, large fingerprint corpora — needs the same four
ingredients, which this package provides once:

1. :mod:`repro.campaign.spec` — a campaign is a parameter grid over a
   registered experiment, expanded into jobs with deterministic per-job
   seeds (same spec ⇒ same seeds, forever).
2. :mod:`repro.campaign.runner` — a parallel runner on
   ``concurrent.futures``, the local transport of the campaign
   scheduler (:mod:`repro.cluster.scheduler`): per-job timeouts,
   bounded retries with backoff, and worker-crash recovery that records
   the failure and keeps the campaign going.
3. :mod:`repro.campaign.store` — one JSONL record per job plus a
   campaign manifest; append-only, so an interrupted campaign resumes by
   skipping jobs whose records already exist.
4. :mod:`repro.campaign.report` — per-cell means and confidence
   intervals rendered as EXPERIMENTS.md-style markdown tables.

The registered experiments live in :mod:`repro.campaign.experiments`;
the CLI front end is ``python -m repro campaign run|resume|report``.
:mod:`repro.campaign.dossier` folds the report, the ``diag.json``
timeseries, and the campaign's obs sinks into one markdown document
(``python -m repro report <campaign-dir>``).
"""

from repro.campaign.dossier import build_dossier, discover_sinks
from repro.campaign.experiments import (
    available_experiments,
    get_experiment,
    register_experiment,
)
from repro.campaign.report import (
    aggregate_records,
    campaign_status,
    render_report,
    render_status,
)
from repro.campaign.executor import InProcessExecutor, JobTimeout, WorkerCrash
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import CampaignSpec, JobSpec, derive_seed
from repro.campaign.store import (
    JobRecord,
    ResultStore,
    SpecMismatchError,
    dedupe_records,
    metrics_digest,
)

__all__ = [
    "CampaignSpec",
    "JobSpec",
    "derive_seed",
    "CampaignRunner",
    "CampaignResult",
    "InProcessExecutor",
    "JobTimeout",
    "WorkerCrash",
    "ResultStore",
    "JobRecord",
    "SpecMismatchError",
    "dedupe_records",
    "metrics_digest",
    "aggregate_records",
    "build_dossier",
    "campaign_status",
    "discover_sinks",
    "render_report",
    "render_status",
    "register_experiment",
    "get_experiment",
    "available_experiments",
]
