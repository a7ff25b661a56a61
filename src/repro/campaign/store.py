"""Persistent campaign results: a manifest plus append-only JSONL.

Layout of one campaign directory::

    <root>/
      manifest.json    spec (verbatim), spec hash, git revision,
                       started/finished timestamps, outcome counts
      results.jsonl    one JSON record per finished job attempt chain

``results.jsonl`` is append-only and flushed per record, so a campaign
killed mid-run loses at most the job in flight; :meth:`ResultStore.load_records`
tolerates a torn final line.  Resume is then trivial: skip every job
whose id already has a record.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import obs
from repro.campaign.spec import CampaignSpec

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
SHARD_PREFIX = "shard-"

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"


class SpecMismatchError(ValueError):
    """A campaign directory holds a different spec than the one offered.

    Raised with both hashes in the message so ``campaign resume`` (and
    the cluster scheduler, which inherits the check) can tell the user
    exactly which two campaigns collided instead of surfacing the
    mismatch late as corrupt aggregates.
    """

    def __init__(self, root, stored_hash, offered_hash) -> None:
        self.stored_hash = stored_hash
        self.offered_hash = offered_hash
        super().__init__(
            f"{root} holds campaign spec_hash={stored_hash!r} but the "
            f"offered spec hashes to {offered_hash!r}; resume must use "
            f"the original spec — use a fresh directory for a new one"
        )


def git_revision(cwd: Optional[str] = None) -> str:
    """Current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@dataclass
class JobRecord:
    """The persisted outcome of one job (after all its attempts)."""

    job_id: str
    experiment: str
    params: dict
    trial: int
    seed: int
    status: str  # one of the STATUS_* constants
    attempts: int
    duration_seconds: float
    metrics: Optional[dict] = None  # experiment output when status == ok
    error: Optional[str] = None  # last failure message otherwise
    finished_at: float = field(default_factory=time.time)
    # None: no budget requested / unknown; False: a wall-clock budget
    # was requested but the platform could not enforce it (no SIGALRM).
    timeout_enforced: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Whether the job produced usable metrics."""
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        """JSON-ready form (one JSONL line)."""
        return {
            "job_id": self.job_id,
            "experiment": self.experiment,
            "params": self.params,
            "trial": self.trial,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "duration_seconds": self.duration_seconds,
            "metrics": self.metrics,
            "error": self.error,
            "finished_at": self.finished_at,
            "timeout_enforced": self.timeout_enforced,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            job_id=data["job_id"],
            experiment=data["experiment"],
            params=dict(data["params"]),
            trial=int(data["trial"]),
            seed=int(data["seed"]),
            status=data["status"],
            attempts=int(data["attempts"]),
            duration_seconds=float(data["duration_seconds"]),
            metrics=data.get("metrics"),
            error=data.get("error"),
            finished_at=float(data.get("finished_at", 0.0)),
            timeout_enforced=data.get("timeout_enforced"),
        )


class ResultStore:
    """One campaign directory: manifest + append-only result log."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / MANIFEST_NAME
        self.results_path = self.root / RESULTS_NAME

    # -- manifest -------------------------------------------------------
    def exists(self) -> bool:
        """Whether this directory already holds a campaign."""
        return self.manifest_path.exists()

    def open_campaign(self, spec: CampaignSpec, resume: bool = False) -> dict:
        """Create (or, with ``resume``, re-open) the campaign directory.

        Refuses to reuse a directory written by a *different* spec — a
        resumed campaign must be the same campaign, or its aggregates
        would silently mix incompatible jobs.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if self.exists():
            manifest = self.load_manifest()
            self.check_spec(spec, manifest)
            if not resume:
                raise FileExistsError(
                    f"{self.root} already holds this campaign; "
                    f"pass resume=True (CLI: `campaign resume`) to continue it"
                )
            manifest["resumed_at"] = time.time()
            manifest.pop("finished_at", None)
            self._write_manifest(manifest)
            return manifest
        manifest = {
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "n_jobs": spec.n_jobs(),
            "git_revision": git_revision(),
            "started_at": time.time(),
        }
        self._write_manifest(manifest)
        return manifest

    def load_manifest(self) -> dict:
        """Read the manifest (raises ``FileNotFoundError`` when absent)."""
        with open(self.manifest_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def check_spec(
        self, spec: CampaignSpec, manifest: Optional[dict] = None
    ) -> None:
        """Raise :class:`SpecMismatchError` unless ``spec`` is the
        campaign this directory already holds."""
        if manifest is None:
            manifest = self.load_manifest()
        stored = manifest.get("spec_hash")
        offered = spec.spec_hash()
        if stored != offered:
            raise SpecMismatchError(self.root, stored, offered)

    def load_spec(self) -> CampaignSpec:
        """Rehydrate the campaign's spec from the manifest — what lets
        ``campaign resume <dir>`` run without the original spec file.

        Verifies the manifest's recorded ``spec_hash`` still matches the
        stored spec, so a hand-edited manifest fails loudly here instead
        of resuming a silently different campaign.
        """
        manifest = self.load_manifest()
        spec = CampaignSpec.from_dict(manifest["spec"])
        stored = manifest.get("spec_hash")
        if stored != spec.spec_hash():
            raise SpecMismatchError(self.root, stored, spec.spec_hash())
        return spec

    def finalize(self, cancelled: int = 0) -> None:
        """Stamp completion time and the campaign's outcomes into the
        manifest — one count per status over every record, so a resume
        keeps what earlier runs finished, plus the ``cancelled`` jobs a
        cancel dropped."""
        records = self.load_records()
        outcomes = Counter(record.status for record in records.values())
        if cancelled:
            outcomes["cancelled"] = cancelled
        manifest = self.load_manifest()
        manifest["finished_at"] = time.time()
        manifest["outcomes"] = dict(outcomes)
        self._write_manifest(manifest)

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.manifest_path)

    # -- results --------------------------------------------------------
    def append(self, record: JobRecord) -> None:
        """Append one finished job, durably (fsync before returning)."""
        self.extend([record])

    def extend(self, records: list[JobRecord]) -> None:
        """Append finished jobs in one write and one fsync.

        A line torn by a crash mid-append is closed with a newline
        first, so it stays one skipped line instead of swallowing the
        next record."""
        if not records:
            return
        observing = obs.enabled()
        start = time.perf_counter() if observing else 0.0
        data = "".join(
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
            for record in records
        ).encode("utf-8")
        with open(self.results_path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    data = b"\n" + data
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if observing:
            obs.observe("store.append_seconds", time.perf_counter() - start)
            obs.counter_add("store.appends")

    def load_records(self, include_shards: bool = False) -> dict[str, JobRecord]:
        """All persisted records, last write per job id winning.

        A torn final line (the process died mid-append) is skipped
        rather than poisoning the whole campaign.  With
        ``include_shards`` records still sitting in un-merged
        ``shard-*/`` sub-stores are folded in via
        :func:`dedupe_records` (ok beats non-ok, then more attempts).
        """
        records: dict[str, JobRecord] = {}
        if self.results_path.exists():
            with open(self.results_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = JobRecord.from_dict(json.loads(line))
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        continue  # torn or foreign line
                    records[record.job_id] = record
        if include_shards:
            shard_records = list(records.values())
            for shard in self.shard_stores():
                shard_records.extend(shard.load_records().values())
            records = dedupe_records(shard_records)
        return records

    def completed_ids(self, include_shards: bool = False) -> set[str]:
        """Job ids that already have a record — what resume skips."""
        return set(self.load_records(include_shards=include_shards))

    # -- shards ---------------------------------------------------------
    def shard_store(self, worker_id: str) -> "ResultStore":
        """The per-worker sub-store ``<root>/shard-<worker_id>/``.

        Workers append only to their own shard, so the main
        ``results.jsonl`` never sees concurrent writers; the scheduler
        folds shards back in at :meth:`merge_shards` time.
        """
        return ResultStore(self.root / f"{SHARD_PREFIX}{worker_id}")

    def shard_stores(self) -> list["ResultStore"]:
        """Every shard sub-store present on disk, in sorted name order."""
        if not self.root.is_dir():
            return []
        return [
            ResultStore(path)
            for path in sorted(self.root.iterdir())
            if path.is_dir() and path.name.startswith(SHARD_PREFIX)
        ]

    def merge_shards(self) -> int:
        """Fold every ``shard-*/results.jsonl`` into the main log.

        Deduplicates with :func:`dedupe_records` (a stale worker
        completing an already-rescheduled job is idempotent), appends
        winners in sorted job-id order for a deterministic merged log
        (one :meth:`extend`), and returns how many records were
        (re)written.  Shard files are left in place as an audit trail;
        the main log wins on re-read.
        """
        shards = self.shard_stores()
        with obs.span("store.merge", store=str(self.root), shards=len(shards)):
            main = self.load_records()
            combined = list(main.values())
            for shard in shards:
                combined.extend(shard.load_records().values())
            merged = dedupe_records(combined)
            changed = [
                record
                for job_id, record in sorted(merged.items())
                if main.get(job_id) is not record
            ]
            # One write, one fsync: the records are already durable in
            # the shards, and a merge cut short is redone on resume.
            self.extend(changed)
        if changed:
            obs.counter_add("store.shard_merged_records", len(changed))
        return len(changed)


# -- pure record algebra (shared by store, scheduler, and tests) --------
def _dedupe_rank(record: JobRecord) -> tuple:
    """Total order over duplicate records for one job id.

    The max under this key wins.  Preference: a successful record beats
    any failure (a stale worker's late ``ok`` for a job the scheduler
    already wrote off as crashed is the *better* record); then more
    attempts (the later chain subsumes the earlier); the canonical JSON
    tail makes the order total so dedupe is independent of input order.
    """
    return (
        1 if record.status == STATUS_OK else 0,
        record.attempts,
        record.finished_at,
        json.dumps(record.to_dict(), sort_keys=True),
    )


def dedupe_records(records) -> dict[str, JobRecord]:
    """Collapse an iterable of records to one winner per job id.

    Order-independent: any permutation of ``records`` yields the same
    mapping (pinned by a Hypothesis test), which is what makes duplicate
    completions and shard merges idempotent.
    """
    winners: dict[str, JobRecord] = {}
    for record in records:
        held = winners.get(record.job_id)
        if held is None or _dedupe_rank(record) > _dedupe_rank(held):
            winners[record.job_id] = record
    return winners


DIGEST_FIELDS = ("job_id", "experiment", "params", "trial", "seed", "status", "metrics")


def metrics_digest(records) -> str:
    """Deterministic sha256 over the *reproducible* part of a record set.

    Covers ``job_id, experiment, params, trial, seed, status, metrics``
    and deliberately excludes the wall-clock fields (``attempts``,
    ``duration_seconds``, ``finished_at``, ``timeout_enforced``,
    ``error``): metrics are a pure function of (experiment, params,
    seed), so the same spec must digest identically whether it ran
    inline, on one worker, or on N workers with a mid-run crash.
    """
    if isinstance(records, dict):
        records = records.values()
    rows = sorted(
        (
            {field: getattr(record, field) for field in DIGEST_FIELDS}
            for record in records
        ),
        key=lambda row: row["job_id"],
    )
    payload = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
