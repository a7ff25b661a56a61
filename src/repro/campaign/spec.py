"""Campaign specifications: parameter grids with deterministic seeds.

A :class:`CampaignSpec` declares *what* to run — a named experiment from
the registry, a grid of swept parameters, fixed parameters shared by
every cell, and a trial count — without saying anything about *how* it
runs (that is the scheduler's job).  Expansion into :class:`JobSpec` jobs
is deterministic: the same spec always yields the same jobs, the same
job ids and the same per-job seeds, which is what makes resume and
cross-machine reproduction possible.

Seeds are derived per job by hashing ``(base_seed, experiment, params,
trial)``, so two cells never share randomness by accident, adding a cell
to the grid never shifts the seeds of existing cells, and rerunning a
campaign with the same spec replays identical jobs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


def _canonical(obj: Any) -> str:
    """Deterministic JSON encoding used for hashing (sorted keys, no
    whitespace variance)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(base_seed: int, experiment: str, params: dict, trial: int) -> int:
    """Deterministic 63-bit seed for one job.

    Independent of grid declaration order and of which other cells the
    campaign contains: only the job's own coordinates matter.
    """
    payload = _canonical(
        {
            "base_seed": base_seed,
            "experiment": experiment,
            "params": params,
            "trial": trial,
        }
    )
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: an experiment call at one grid cell and trial."""

    job_id: str
    experiment: str
    params: tuple  # sorted (name, value) pairs — hashable cell identity
    trial: int
    seed: int

    def params_dict(self) -> dict:
        """The cell's parameters as a plain dict (what the experiment
        function receives)."""
        return dict(self.params)


def _json_number(data: dict, key: str, default, integer: bool = False):
    """``data[key]`` (or ``default`` when absent) checked to be a JSON
    integer, or with ``integer=False`` any JSON number; ``null`` passes
    only where the default is ``None``.  Anything else, booleans
    included, raises ``ValueError``."""
    value = data.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"spec {key!r} must be {kind}, got {value!r}")
    return value


@dataclass
class FaultInjection:
    """Deliberate first-attempt failures, for drills and tests.

    The scheduler consults this as it leases each attempt; an injected
    job fails its first ``attempts`` attempts and then behaves normally
    — proving in production that retries work.  ``mode`` ``"exception"``
    fails the attempt (``failed``); ``"crash"`` reports a worker crash
    (:class:`~repro.campaign.executor.WorkerCrash`, ``crashed``) on
    every transport.  A real worker death is the SIGKILL drill of
    ``cluster run --drill-kill-worker``.
    """

    count: int = 0  # inject into the first N jobs (by expansion order)
    jobs: list = field(default_factory=list)  # ... and/or these job ids
    attempts: int = 1  # how many leading attempts fail
    mode: str = "exception"  # "exception" | "crash"

    def applies_to(self, job: JobSpec, position: int, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) of this job
        should be made to fail."""
        if attempt >= self.attempts:
            return False
        return position < self.count or job.job_id in self.jobs

    def to_dict(self) -> dict:
        """JSON-ready form for the manifest."""
        return {
            "count": self.count,
            "jobs": list(self.jobs),
            "attempts": self.attempts,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultInjection":
        """Inverse of :meth:`to_dict`; a malformed block raises
        ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("spec 'inject_failures' must be an object")
        jobs = data.get("jobs", [])
        if not isinstance(jobs, list) or not all(isinstance(j, str) for j in jobs):
            raise ValueError("spec 'inject_failures.jobs' must be a list of job ids")
        mode = data.get("mode", "exception")
        if mode not in ("exception", "crash"):
            # Any other mode would silently inject nothing.
            raise ValueError(
                f"spec 'inject_failures.mode' must be 'exception' or 'crash', got {mode!r}"
            )
        return cls(
            count=_json_number(data, "count", 0, integer=True),
            jobs=list(jobs),
            attempts=_json_number(data, "attempts", 1, integer=True),
            mode=mode,
        )


@dataclass
class CampaignSpec:
    """A declarative sweep: experiment × grid × trials.

    Args:
        name: campaign name (also the default result-directory name).
        experiment: registry name from
            :mod:`repro.campaign.experiments`.
        grid: swept parameters, ``{name: [value, ...]}``; cells are the
            cartesian product.
        fixed: parameters held constant across all cells.
        trials: independent repetitions per cell (distinct seeds).
        base_seed: root of the per-job seed derivation.
        timeout_seconds: per-job wall-clock budget (None = unlimited).
        max_retries: extra attempts after a failed first attempt.
        retry_backoff: base delay before a retry, doubled per attempt.
        inject_failures: optional :class:`FaultInjection` drill.
    """

    name: str
    experiment: str
    grid: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    trials: int = 1
    base_seed: int = 0
    timeout_seconds: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    inject_failures: Optional[FaultInjection] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters both swept and fixed: {sorted(overlap)}")
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid axis {key!r} must be a non-empty list")

    # -- expansion ------------------------------------------------------
    def cells(self) -> Iterator[dict]:
        """Every grid cell merged with the fixed parameters, in
        deterministic (sorted-axis, declared-value) order."""
        axes = sorted(self.grid)
        for combo in itertools.product(*(self.grid[a] for a in axes)):
            cell = dict(self.fixed)
            cell.update(zip(axes, combo))
            yield cell

    def jobs(self) -> list[JobSpec]:
        """Expand the grid × trials into concrete jobs."""
        out: list[JobSpec] = []
        for cell in self.cells():
            for trial in range(self.trials):
                seed = derive_seed(self.base_seed, self.experiment, cell, trial)
                job_id = hashlib.sha256(
                    _canonical(
                        {
                            "base_seed": self.base_seed,
                            "experiment": self.experiment,
                            "params": cell,
                            "trial": trial,
                        }
                    ).encode()
                ).hexdigest()[:16]
                out.append(
                    JobSpec(
                        job_id=job_id,
                        experiment=self.experiment,
                        params=tuple(sorted(cell.items())),
                        trial=trial,
                        seed=seed,
                    )
                )
        return out

    def n_jobs(self) -> int:
        """Campaign size without materialising the jobs."""
        n = self.trials
        for values in self.grid.values():
            n *= len(values)
        return n

    # -- identity / serialisation --------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form (stored verbatim in the manifest)."""
        out = {
            "name": self.name,
            "experiment": self.experiment,
            "grid": self.grid,
            "fixed": self.fixed,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "timeout_seconds": self.timeout_seconds,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
        }
        if self.inject_failures is not None:
            out["inject_failures"] = self.inject_failures.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Build a spec from its JSON form.

        Every malformed spec raises ``ValueError``: a non-object, an
        unknown key (so a typo fails loudly instead of silently running
        the default), a missing or non-string ``name``/``experiment``, a
        non-object ``grid``/``fixed``, or a field of the wrong type.
        """
        if not isinstance(data, dict):
            raise ValueError("a campaign spec must be a JSON object")
        known = {
            "name",
            "experiment",
            "grid",
            "fixed",
            "trials",
            "base_seed",
            "timeout_seconds",
            "max_retries",
            "retry_backoff",
            "inject_failures",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        for key in ("name", "experiment"):
            if not isinstance(data.get(key), str):
                raise ValueError(f"spec {key!r} must be a string")
        for key in ("grid", "fixed"):
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(f"spec {key!r} must be an object")
        inject = data.get("inject_failures")
        return cls(
            name=data["name"],
            experiment=data["experiment"],
            grid=dict(data.get("grid", {})),
            fixed=dict(data.get("fixed", {})),
            trials=_json_number(data, "trials", 1, integer=True),
            base_seed=_json_number(data, "base_seed", 0, integer=True),
            timeout_seconds=_json_number(data, "timeout_seconds", None),
            max_retries=_json_number(data, "max_retries", 2, integer=True),
            retry_backoff=float(_json_number(data, "retry_backoff", 0.05)),
            inject_failures=(
                FaultInjection.from_dict(inject) if inject is not None else None
            ),
        )

    @classmethod
    def from_json_file(cls, path) -> "CampaignSpec":
        """Load a spec from a JSON file (the CLI's input format)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def spec_hash(self) -> str:
        """Content hash identifying the campaign; resume refuses to mix
        records from different specs."""
        return hashlib.sha256(_canonical(self.to_dict()).encode()).hexdigest()[:16]
