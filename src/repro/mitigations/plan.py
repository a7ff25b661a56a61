"""Mitigation planning: turn a TaintChannel report into a repair recipe.

:func:`build_plan` walks the gadgets of an
:class:`~repro.core.taintchannel.gadgets.AnalysisResult` and selects,
per dereference site, the cheapest mitigation that closes its channel:

``none``
    No taint ever reaches the line-granularity address bits (bit >= 6):
    the channel carries nothing, leave the site alone.
``guard``
    Debreach-style span exclusion: keep the code but forbid the secret
    from participating (zlib match search with declared secret spans),
    or — for control-flow gadgets, whose index is *chosen by* a tainted
    branch rather than computed from input — the fix is in the branch,
    not the table, so no table cover applies.
``preload``
    Read-only sites: do the real read, then pull every other line of
    the table through the cache (:mod:`repro.mitigations.preload`).
``mask``
    Few tainted line-bits on an aligned table: touch only the lines
    those bits can reach (:mod:`repro.mitigations.masking`), cheaper
    than a full scan when ``2**len(mask_bits)`` < table lines.
``oblivious``
    The general fallback: full-scan every access
    (:class:`~repro.mitigations.oblivious.ObliviousTable`).

The plan is a plain JSON-serialisable object so it can be written to
disk by ``repro mitigate survey`` and fed back to ``repro mitigate
apply``; everything the apply layer needs (mask bits, table geometry)
is captured in ``SitePlan.params``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core.taintchannel.gadgets import (
    CACHE_LINE_BITS,
    AnalysisResult,
    Gadget,
)

MITIGATION_NONE = "none"
MITIGATION_OBLIVIOUS = "oblivious"
MITIGATION_MASK = "mask"
MITIGATION_PRELOAD = "preload"
MITIGATION_GUARD = "guard"

MITIGATION_KINDS = (
    MITIGATION_NONE,
    MITIGATION_OBLIVIOUS,
    MITIGATION_MASK,
    MITIGATION_PRELOAD,
    MITIGATION_GUARD,
)

#: Masking must beat the full scan by construction; above this many
#: cover combinations the bookkeeping stops paying for itself and the
#: planner falls back to the oblivious scan.
MASK_COMBO_LIMIT = 64


@dataclass
class SitePlan:
    """One gadget site's diagnosis and chosen mitigation."""

    site: str
    array: str
    mitigation: str
    flow: str  # "data" | "control" | "unknown" (no provenance recorded)
    kinds: list[str]
    leaked_addr_bits: list[int]  # tainted address bits >= CACHE_LINE_BITS
    leaked_input_tags: int
    leaked_other_tags: int
    accesses: int
    table_lines: int
    cover_lines: int  # lines touched per access once mitigated
    rationale: str
    params: dict = field(default_factory=dict)

    @property
    def mitigated(self) -> bool:
        return self.mitigation not in (MITIGATION_NONE, MITIGATION_GUARD)

    def describe(self) -> str:
        return (
            f"{self.site!r} ({self.array}, {'/'.join(self.kinds)}, "
            f"{self.flow}-flow): {self.mitigation} — {self.rationale}"
        )


@dataclass
class MitigationPlan:
    """A full per-site repair recipe for one target/input pair."""

    target: str
    input_len: int
    sites: list[SitePlan]

    def site(self, site: str) -> SitePlan:
        for sp in self.sites:
            if sp.site == site:
                return sp
        raise KeyError(f"no plan entry for site {site!r}")

    def mitigated_sites(self) -> list[SitePlan]:
        return [sp for sp in self.sites if sp.mitigated]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {
                "target": self.target,
                "input_len": self.input_len,
                "sites": [asdict(sp) for sp in self.sites],
            },
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MitigationPlan":
        """Parse a plan written by :meth:`to_json`.  A plan file is
        untrusted input: anything malformed raises :class:`ValueError`
        naming the bad field, never another exception later in apply."""
        try:
            raw = json.loads(text)  # JSONDecodeError is a ValueError
        except RecursionError:
            raise ValueError("plan nests too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError(f"plan must be an object, got {type(raw).__name__}")
        for key, kind in (("target", str), ("input_len", int), ("sites", list)):
            if not _is(raw.get(key), kind):
                raise ValueError(f"plan field {key!r} must be {kind.__name__}")
        return cls(
            target=raw["target"],
            input_len=raw["input_len"],
            sites=[_site_from_json(sp, n) for n, sp in enumerate(raw["sites"])],
        )

    def summary(self) -> str:
        lines = [
            f"Mitigation plan for {self.target} "
            f"({self.input_len} input bytes, {len(self.sites)} sites)"
        ]
        for sp in self.sites:
            lines.append(f"  - {sp.describe()}")
        return "\n".join(lines)


#: :class:`SitePlan` JSON field -> value type (``(list, T)``: list of T).
_SITE_FIELDS = {
    "site": str, "array": str, "mitigation": str, "flow": str,
    "kinds": (list, str), "leaked_addr_bits": (list, int),
    "leaked_input_tags": int, "leaked_other_tags": int, "accesses": int,
    "table_lines": int, "cover_lines": int, "rationale": str, "params": dict,
}


def _is(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, list) and all(_is(v, kind[1]) for v in value)
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _site_from_json(raw, n: int) -> SitePlan:
    """One plan entry, type-checked field by field, with the params its
    mitigation reads checked as well."""
    where = f"plan site {n}"
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object, got {type(raw).__name__}")
    missing = sorted(set(_SITE_FIELDS) - {"params"} - set(raw))
    unknown = sorted(set(raw) - set(_SITE_FIELDS))
    if missing or unknown:
        raise ValueError(f"{where}: missing fields {missing}, unknown fields {unknown}")
    for key, value in raw.items():
        if not _is(value, _SITE_FIELDS[key]):
            raise ValueError(f"{where}: field {key!r} has the wrong type")
    sp = SitePlan(**raw)
    if sp.mitigation not in MITIGATION_KINDS:
        raise ValueError(
            f"{where}: unknown mitigation {sp.mitigation!r} "
            f"(choose from {', '.join(MITIGATION_KINDS)})"
        )
    bits = sp.params.get("mask_index_bits")
    if sp.mitigation == MITIGATION_MASK and not (
        _is(bits, (list, int))
        and all(0 <= b < 64 for b in bits)
        and 1 << len(set(bits)) <= MASK_COMBO_LIMIT
    ):
        raise ValueError(
            f"{where}: mask needs params.mask_index_bits, a list of at most "
            f"{MASK_COMBO_LIMIT.bit_length() - 1} index bits in [0, 64)"
        )
    spans = sp.params.get("secret_spans", [])
    if not (
        isinstance(spans, list)
        and all(_is(span, (list, int)) and len(span) == 2 for span in spans)
    ):
        raise ValueError(f"{where}: params.secret_spans must be [lo, hi] int pairs")
    return sp


def _leaked_addr_bits(gadget: Gadget) -> list[int]:
    """Tainted address bits the channel exposes (>= the line offset)."""
    bits: set[int] = set()
    for acc in gadget.accesses:
        for lo, hi, _ in acc.addr_taint.runs:
            bits.update(range(max(lo, CACHE_LINE_BITS), hi))
    return sorted(bits)


def _flow_of(gadget: Gadget) -> str:
    if all(acc.addr_origin is None for acc in gadget.accesses):
        return "unknown"
    return "data" if gadget.is_data_flow() else "control"


def _table_lines(length: int, elem_size: int, base: int) -> int:
    if length == 0:
        return 0
    first = base >> 6
    last = (base + length * elem_size - 1) >> 6
    return last - first + 1


def plan_site(
    gadget: Gadget,
    result: AnalysisResult,
    secret_spans: Optional[list[tuple[int, int]]] = None,
) -> SitePlan:
    """Diagnose one gadget and choose its mitigation."""
    leaked_bits = _leaked_addr_bits(gadget)
    leaked = gadget.leaked_tags()
    n_input = sum(
        1 for t in leaked if result.tags.info(t).source == "input"
    )
    flow = _flow_of(gadget)
    kinds = sorted(gadget.kinds)
    length, elem_size, base = result.geometry.get(
        gadget.array, (0, gadget.accesses[0].elem_size, 0)
    )
    table_lines = _table_lines(length, elem_size, base)

    common = dict(
        site=gadget.site,
        array=gadget.array,
        flow=flow,
        kinds=kinds,
        leaked_addr_bits=leaked_bits,
        leaked_input_tags=n_input,
        leaked_other_tags=len(leaked) - n_input,
        accesses=gadget.count,
        table_lines=table_lines,
    )

    if not leaked_bits:
        return SitePlan(
            mitigation=MITIGATION_NONE,
            cover_lines=1,
            rationale="taint never reaches line-granularity address bits",
            **common,
        )

    if flow == "control":
        return SitePlan(
            mitigation=MITIGATION_GUARD,
            cover_lines=1,
            rationale=(
                "index chosen by tainted control flow, not computed "
                "from it; linearise/guard the branch, table covers "
                "do not apply"
            ),
            **common,
        )

    if secret_spans and gadget.array in ("head", "prev", "window"):
        return SitePlan(
            mitigation=MITIGATION_GUARD,
            cover_lines=1,
            rationale=(
                "declared secret spans: exclude them from the leaking "
                "computation (Debreach-style) instead of covering the "
                "table"
            ),
            params={"secret_spans": [list(s) for s in secret_spans]},
            **common,
        )

    if set(kinds) <= {"read"}:
        return SitePlan(
            mitigation=MITIGATION_PRELOAD,
            cover_lines=max(table_lines, 1),
            rationale=(
                "read-only site: real read plus a full-table read "
                "sweep leaves every line equally fresh"
            ),
            **common,
        )

    # Masking needs an exact address-bit <-> index-bit correspondence:
    # power-of-two element size and a line-aligned base.
    mask_ok = (
        elem_size > 0
        and elem_size & (elem_size - 1) == 0
        and base % 64 == 0
    )
    if mask_ok:
        shift = elem_size.bit_length() - 1
        mask_index_bits = sorted(
            b - shift for b in leaked_bits if b - shift >= 0
        )
        combos = 1 << len(mask_index_bits)
        if combos <= MASK_COMBO_LIMIT and combos < table_lines:
            return SitePlan(
                mitigation=MITIGATION_MASK,
                cover_lines=combos,
                rationale=(
                    f"only {len(mask_index_bits)} tainted line-bits: "
                    f"cover their {combos} combinations instead of all "
                    f"{table_lines} table lines"
                ),
                params={"mask_index_bits": mask_index_bits},
                **common,
            )

    return SitePlan(
        mitigation=MITIGATION_OBLIVIOUS,
        cover_lines=max(table_lines, 1),
        rationale=(
            f"taint spans too many index bits for masking: full "
            f"{max(table_lines, 1)}-line scan per access"
        ),
        **common,
    )


def build_plan(
    result: AnalysisResult,
    secret_spans: Optional[list[tuple[int, int]]] = None,
) -> MitigationPlan:
    """Derive the per-site mitigation plan from a gadget report.

    ``secret_spans`` (byte ranges of the input that are secret) switches
    the zlib-family match-finder sites to Debreach-style guarding; see
    :mod:`repro.mitigations.debreach`.
    """
    sites = [
        plan_site(g, result, secret_spans=secret_spans)
        for g in sorted(result.gadgets, key=lambda g: -g.count)
    ]
    return MitigationPlan(
        target=result.target, input_len=result.input_len, sites=sites
    )
