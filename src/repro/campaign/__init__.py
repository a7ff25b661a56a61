"""Experiment-campaign engine: declarative sweeps, parallel execution,
persistent results.

Every figure in the reproduction is backed by a one-shot script; scaling
any of them — accuracy-vs-noise sweeps, many-trial confidence intervals
on the SGX attack, large fingerprint corpora — needs the same four
ingredients, which this package provides once:

1. :mod:`repro.campaign.spec` — a campaign is a parameter grid over a
   registered experiment, expanded into jobs with deterministic per-job
   seeds (same spec ⇒ same seeds, forever).
2. :mod:`repro.campaign.runner` and :mod:`repro.campaign.executor` —
   the inline driver of the campaign scheduler
   (:mod:`repro.cluster.scheduler`) and the job-attempt core every
   worker runs: per-job timeouts, bounded retries with backoff, and
   crash records that keep the campaign going.  Multi-process runs go
   through the forked worker fleet of :func:`repro.cluster.run_cluster`.
3. :mod:`repro.campaign.store` — one JSONL record per job plus a
   campaign manifest; append-only, so an interrupted campaign resumes by
   skipping jobs whose records already exist.
4. :mod:`repro.campaign.report` — per-cell means and confidence
   intervals rendered as EXPERIMENTS.md-style markdown tables.

The registered experiments live in :mod:`repro.campaign.experiments`;
the CLI front end is ``python -m repro campaign run|resume|report``.
:mod:`repro.campaign.dossier` folds the report, a metrics timeseries
derived from ``results.jsonl``, and the campaign's obs sinks into one
markdown document (``python -m repro report <campaign-dir>``).
"""

from repro._lazy import lazy_exports

# Imported on first access, so a cluster worker that only runs jobs
# never loads the report and dossier renderers.  Built-in experiments
# register when ``repro.campaign.experiments`` is first imported, which
# happens before any job runs (the executor resolves jobs through it).
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.campaign.spec": ("CampaignSpec", "JobSpec", "derive_seed"),
        "repro.campaign.runner": ("CampaignRunner", "CampaignResult"),
        "repro.campaign.executor": ("JobTimeout", "WorkerCrash"),
        "repro.campaign.store": (
            "ResultStore", "JobRecord", "SpecMismatchError",
            "dedupe_records", "metrics_digest",
        ),
        "repro.campaign.report": (
            "aggregate_records", "campaign_status", "render_report",
            "render_status",
        ),
        "repro.campaign.dossier": ("build_dossier", "discover_sinks"),
        "repro.campaign.experiments": (
            "register_experiment", "get_experiment", "available_experiments",
        ),
    },
)
