"""Gadget grouping and leakage quantification.

A *gadget* is a program location (site) whose memory-access addresses are
tainted by input.  The cache channel hides the low
``CACHE_LINE_BITS`` = 6 address bits (Section IV-A), so a gadget only
*leaks* the taint sitting on higher bits; :meth:`Gadget.leaked_tags`
quantifies which input bytes are exposed, and
:meth:`AnalysisResult.input_coverage` gives the headline number of the
survey (Section IV-E): the fraction of the input that some gadget leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec.events import MemoryAccess
from repro.taint.tags import TagRegistry

CACHE_LINE_BITS = 6  # log2(64-byte lines): invisible to the attacker


@dataclass
class Gadget:
    """All tainted accesses sharing one program site."""

    site: str
    array: str
    kinds: set[str] = field(default_factory=set)
    accesses: list[MemoryAccess] = field(default_factory=list)

    def add(self, access: MemoryAccess) -> None:
        self.accesses.append(access)
        self.kinds.add(access.kind)

    @property
    def count(self) -> int:
        return len(self.accesses)

    def tainted_tags(self) -> frozenset[int]:
        """Every input byte whose taint reaches an address here."""
        tags: set[int] = set()
        for acc in self.accesses:
            tags |= acc.addr_taint.tags()
        return frozenset(tags)

    def leaked_tags(self) -> frozenset[int]:
        """Input bytes with taint on address bits the channel exposes
        (bit >= 6, i.e. above the line offset)."""
        tags: set[int] = set()
        for acc in self.accesses:
            for _, hi, run_tags in acc.addr_taint.runs:
                if hi > CACHE_LINE_BITS:
                    tags |= run_tags
        return frozenset(tags)

    def is_data_flow(self) -> bool:
        """True when addresses are *computed from* input data.

        A data-flow gadget's address provenance reaches back to at least
        one :class:`~repro.taint.value.InputRecord` through arithmetic
        (``OpRecord`` operands).  A control-flow gadget carries taint on
        its address bits but the backward slice never reaches an input
        root — e.g. the index was picked by a tainted branch, so the
        chain dead-ends in a :class:`~repro.taint.value.CompareRecord`.
        Traces captured without provenance (``TraceTier.ADDRESS_ONLY``
        leaves ``addr_origin`` empty) cannot distinguish the two; they
        keep the historical data-flow default.
        """
        from repro.core.taintchannel.provenance import input_roots

        saw_provenance = False
        for acc in self.accesses:
            if acc.addr_origin is None:
                continue
            saw_provenance = True
            if input_roots(acc.addr_origin):
                return True
        return not saw_provenance

    def describe(self) -> str:
        return (
            f"gadget {self.site!r}: {self.count} accesses to {self.array!r} "
            f"({'/'.join(sorted(self.kinds))}), "
            f"{len(self.leaked_tags())} input bytes leak above the line offset"
        )


@dataclass
class AnalysisResult:
    """One TaintChannel run over one target/input pair."""

    target: str
    input_len: int
    gadgets: list[Gadget]
    tags: TagRegistry
    n_events: int
    n_compares: int
    n_plain_accesses: int
    #: array name -> (length, elem_size, base address); lets downstream
    #: consumers (the mitigation planner) reason about table geometry
    #: without re-running the trace.
    geometry: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def gadget(self, site: str) -> Gadget:
        """Look up a gadget by its site label; KeyError if absent."""
        for g in self.gadgets:
            if g.site == site:
                return g
        raise KeyError(f"no gadget at site {site!r}")

    def leaked_input_bytes(self) -> frozenset[int]:
        tags: set[int] = set()
        for g in self.gadgets:
            tags |= g.leaked_tags()
        return frozenset(tags)

    def input_coverage(self) -> float:
        """Fraction of input bytes leaked by at least one gadget — the
        survey's headline metric ("memory accesses that depend on the
        entire compressed file")."""
        if self.input_len == 0:
            return 0.0
        indices = {
            self.tags.info(t).index
            for t in self.leaked_input_bytes()
            if self.tags.info(t).source == "input"
        }
        return len(indices) / self.input_len

    def summary(self) -> str:
        lines = [
            f"TaintChannel analysis of {self.target}",
            f"  input bytes: {self.input_len}",
            f"  trace events: {self.n_events} "
            f"(+{self.n_plain_accesses} untainted accesses)",
            f"  tainted compares (control-flow uses): {self.n_compares}",
            f"  data-flow gadgets: {len(self.gadgets)}",
        ]
        for g in sorted(self.gadgets, key=lambda g: -g.count):
            lines.append(f"    - {g.describe()}")
        lines.append(
            f"  input coverage via cache channel: "
            f"{self.input_coverage() * 100:.1f}%"
        )
        return "\n".join(lines)


def group_gadgets(accesses: list[MemoryAccess]) -> list[Gadget]:
    """Group taint-addressed accesses into per-site gadgets."""
    by_site: dict[tuple[str, str], Gadget] = {}
    for acc in accesses:
        if not acc.addr_taint:
            continue
        key = (acc.site or f"<anon {acc.array}>", acc.array)
        gadget = by_site.get(key)
        if gadget is None:
            gadget = Gadget(site=key[0], array=acc.array)
            by_site[key] = gadget
        gadget.add(acc)
    return list(by_site.values())
