"""One baseline gate: flat metric rows against a committed JSON file.

The repo's behaviour gate, ``repro diag compare``, runs on this module:
the paper's claims, leakage, channel health and the pinned benches'
metrics digests included, committed in
``benchmarks/claims_baseline.json``.  Its producer, ``diag claims``,
writes the payload::

    {"schema": "repro-gate/1",
     "params": {...},                 # what produced the metrics
     "metrics": {name: value, ...},   # flat rows
     "directions": {name: direction, ...}}

and :func:`compare` checks every baseline row by its direction:

* ``higher`` fails when ``current < baseline * (1 - tolerance) - abs_epsilon``;
* ``lower`` fails when ``current > baseline * (1 + tolerance) + abs_epsilon``;
* ``equal`` fails unless ``current == baseline`` (metrics digests);
* ``info`` is recorded but never gates.

A baseline row missing from the current run fails (the suite shrank);
a current row the baseline lacks is reported as ``new`` information.
Gate files are read from disk, so :func:`load` rejects anything that is
not such a payload with a :class:`GateInputError` instead of letting a
``KeyError`` or ``JSONDecodeError`` escape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

SCHEMA = "repro-gate/1"
DIRECTIONS = ("higher", "lower", "equal", "info")


class GateInputError(ValueError):
    """A gate file or metrics dict that is not a well-formed payload."""


def payload(
    params: Mapping, metrics: Mapping, direction: Callable[[str], str]
) -> dict:
    """The JSON document a gate producer writes; ``direction`` maps
    each metric name to one of :data:`DIRECTIONS`."""
    names = sorted(metrics)
    return validate(
        {
            "schema": SCHEMA,
            "params": dict(params),
            "metrics": {name: metrics[name] for name in names},
            "directions": {name: direction(name) for name in names},
        }
    )


def save(path: str, doc: dict) -> None:
    """Write a :func:`payload` document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str, what: str = "gate file") -> dict:
    """Read and validate a gate payload; every failure — a missing
    file, non-JSON, a wrong shape — is a :class:`GateInputError` whose
    message names ``what`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise GateInputError(f"no {what} at {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GateInputError(f"{what} {path} is not JSON: {exc}") from None
    try:
        return validate(doc)
    except GateInputError as exc:
        raise GateInputError(f"{what} {path}: {exc}") from None


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float))


def validate(doc: object) -> dict:
    """Return ``doc`` if it is a well-formed payload, else raise."""
    if not isinstance(doc, dict):
        raise GateInputError(
            f"expected a JSON object, got {type(doc).__name__}"
        )
    if doc.get("schema") != SCHEMA:
        raise GateInputError(
            f"not a {SCHEMA} payload (schema={doc.get('schema')!r})"
        )
    for key in ("params", "metrics", "directions"):
        if not isinstance(doc.get(key), dict):
            raise GateInputError(f"{key!r} must be a JSON object")
    metrics, directions = doc["metrics"], doc["directions"]
    if set(metrics) != set(directions):
        raise GateInputError("'metrics' and 'directions' name different rows")
    for name, value in metrics.items():
        direction = directions[name]
        if direction not in DIRECTIONS:
            raise GateInputError(
                f"row {name!r}: unknown direction {direction!r}"
            )
        if not (_is_number(value) or isinstance(value, str)):
            raise GateInputError(
                f"row {name!r}: value {value!r} is not a number or string"
            )
        if direction in ("higher", "lower") and not _is_number(value):
            raise GateInputError(
                f"row {name!r}: {direction} row value {value!r} is not a number"
            )
    return doc


@dataclass
class Row:
    """One metric's verdict."""

    name: str
    direction: str
    baseline: Optional[object]
    current: Optional[object]
    ok: bool
    note: str = ""

    @property
    def status(self) -> str:
        if not self.ok:
            changed = self.direction == "equal" and self.current is not None
            return "CHANGED" if changed else "REGRESSED"
        return "info" if self.direction == "info" else "ok"


@dataclass
class Comparison:
    """The whole gate result; ``ok`` is what a CLI exits on."""

    title: str
    tolerance: float
    rows: list[Row] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def regressions(self) -> list[Row]:
        return [row for row in self.rows if not row.ok]

    def summary(self) -> str:
        lines = [
            f"{self.title} (tolerance {self.tolerance * 100:.1f}%):",
            f"{'metric':<38} {'dir':<7} {'baseline':>12} "
            f"{'current':>12}  status",
        ]
        for row in self.rows:
            note = f"  ({row.note})" if row.note else ""
            lines.append(
                f"{row.name:<38} {row.direction:<7} "
                f"{_cell(row.baseline):>12} {_cell(row.current):>12}  "
                f"{row.status}{note}"
            )
        n_bad = len(self.regressions)
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'}: {n_bad} "
            f"regression{'s' if n_bad != 1 else ''} "
            f"across {len(self.rows)} metrics"
        )
        return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value[:12]
    return f"{value:.6g}"


def _row_ok(row: Row, tolerance: float, abs_epsilon: float) -> bool:
    base, cur = row.baseline, row.current
    if row.direction == "equal":
        return cur == base
    if row.direction == "info":
        return True
    if not _is_number(cur):
        raise GateInputError(
            f"row {row.name!r}: current value {cur!r} is not a number"
        )
    if row.direction == "higher":
        return cur >= base * (1.0 - tolerance) - abs_epsilon
    return cur <= base * (1.0 + tolerance) + abs_epsilon


def compare(
    current: Mapping,
    baseline: dict,
    tolerance: float,
    abs_epsilon: float = 0.0,
    title: str = "gate",
) -> Comparison:
    """Gate the flat ``current`` metrics against a baseline payload.

    The baseline's directions decide every verdict.  ``abs_epsilon``
    is absolute slack on ``higher``/``lower`` rows, for gates whose
    baselines sit at ~0.
    """
    base_metrics = baseline["metrics"]
    directions = baseline["directions"]
    result = Comparison(title=title, tolerance=tolerance)
    for name in sorted(base_metrics):
        row = Row(name, directions[name], base_metrics[name], None, False)
        if name not in current:
            row.note = "missing"
        else:
            row.current = current[name]
            row.ok = _row_ok(row, tolerance, abs_epsilon)
        result.rows.append(row)
    for name in sorted(set(current) - set(base_metrics)):
        result.rows.append(Row(name, "info", None, current[name], True, "new"))
    return result
