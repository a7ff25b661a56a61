"""Bit-level taint sets.

A :class:`BitTaint` records, for every bit position of a value, the set of
taint tags that influence that bit.  This is the representation behind the
ASCII-art maps in the paper's Figs. 2-4, where e.g. "bits 6-13 are tainted
with information from input byte 5751".

The propagation rules follow Section III-B of the paper:

* ``xor``/``or`` of two values merges the taint of the sources per bit
  ("each bit can hold an arbitrary number of taint tags").
* ``and`` with an untainted mask keeps taint "only at the locations where
  the untainted values were 1".
* Shifts translate taint "the same number of bits as the instruction
  itself".
* Addition is propagated *positionally* by default (per-bit union, like
  ``or``): this matches the positional bit maps TaintChannel prints for
  pointer arithmetic such as ``head + ins_h<<1`` (Fig. 2).  A conservative
  carry-aware mode (each result bit additionally tainted by all lower
  operand bits) is available for analyses that prefer over- to
  under-approximation.

Instances are immutable by convention: every operation returns a new
``BitTaint`` and never mutates observable state.

Representation
--------------

A ``BitTaint`` is a tuple of *runs* ``(lo, hi, tags)``: every bit in
``[lo, hi)`` carries exactly ``tags``.  This is the shape of the paper's
bit maps and of a stored ZTRC taint record (:mod:`repro.traces.format`
writes the runs as they are).  The run tuple is canonical:

* runs are sorted and disjoint, each with ``lo < hi`` and a non-empty
  tag set;
* every tag set is interned (:func:`intern_tags`), so identical sets are
  one shared object;
* no two touching runs (``hi == next lo``) carry the same tags.

Two taints are therefore equal iff their run tuples are, and every
propagation rule is interval arithmetic over the runs: an access such
as LZW's ``htab[(c << 9) ^ ent]`` costs a handful of tuple operations,
never a per-bit map.
"""

from __future__ import annotations

from typing import Iterable, Iterator

_EMPTY_SET: frozenset[int] = frozenset()

# The global tag-set pool.  Never trimmed: distinct tag combinations are
# bounded by what the traced kernel actually computes, which is tiny
# compared to the number of BitTaint instances sharing them.
_TAG_POOL: dict[frozenset[int], frozenset[int]] = {}

Run = tuple[int, int, frozenset[int]]


def intern_tags(tags: frozenset[int]) -> frozenset[int]:
    """The pooled instance of a tag frozenset (adds it if new)."""
    pooled = _TAG_POOL.get(tags)
    if pooled is None:
        pooled = _TAG_POOL[tags] = tags
    return pooled


def _union_tags(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """Interned union of two interned tag sets."""
    return a if a is b else intern_tags(a | b)


class BitTaint:
    """Sparse map from bit position to the ``frozenset`` of tags on it,
    stored as the canonical run tuple ``_runs`` (see the module
    docstring)."""

    __slots__ = ("_runs",)

    def __init__(self, bits: dict[int, frozenset[int]] | None = None) -> None:
        """Taint from a per-bit map ``{bit: tags}``.

        A bit whose tag set is empty carries no taint and is dropped, so
        ``BitTaint({3: frozenset()})`` is empty (and falsy).
        """
        self._runs: tuple[Run, ...] = _canonical(
            (bit, bit + 1, tags) for bit, tags in sorted((bits or {}).items())
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _of(cls, runs: tuple[Run, ...]) -> "BitTaint":
        """Instance over an already canonical run tuple."""
        if not runs:
            return _EMPTY
        obj = cls.__new__(cls)
        obj._runs = runs
        return obj

    @classmethod
    def _make_run(cls, lo: int, hi: int, tags: frozenset[int]) -> "BitTaint":
        """One-run instance; degenerate ranges collapse to empty."""
        if lo >= hi or not tags:
            return _EMPTY
        obj = cls.__new__(cls)
        obj._runs = ((lo, hi, tags),)
        return obj

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> "BitTaint":
        """Taint from sorted, disjoint ``(lo, hi, tags)`` runs, in any
        form: empty runs and empty tag sets are dropped, tag sets are
        interned and touching runs with equal tags are merged."""
        return cls._of(_canonical(runs))

    @classmethod
    def empty(cls) -> "BitTaint":
        """Taint of an untainted value."""
        return _EMPTY

    @classmethod
    def byte(cls, tag: int, lo_bit: int = 0) -> "BitTaint":
        """Taint of a freshly-read input byte: ``tag`` on 8 consecutive
        bits starting at ``lo_bit``."""
        return cls._make_run(lo_bit, lo_bit + 8, intern_tags(frozenset((tag,))))

    @classmethod
    def of_bits(cls, tag: int, bits: Iterable[int]) -> "BitTaint":
        """Taint ``tag`` on an explicit collection of bit positions."""
        tags = frozenset((tag,))
        return cls.from_runs((bit, bit + 1, tags) for bit in sorted(set(bits)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runs(self) -> tuple[Run, ...]:
        """The canonical ``(lo, hi, tags)`` run tuple."""
        return self._runs

    def is_empty(self) -> bool:
        return not self._runs

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitTaint):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __iter__(self) -> Iterator[tuple[int, frozenset[int]]]:
        return iter(
            [(bit, tags) for lo, hi, tags in self._runs for bit in range(lo, hi)]
        )

    def at(self, bit: int) -> frozenset[int]:
        """Tags on a single bit position."""
        for lo, hi, tags in self._runs:
            if bit < hi:
                return tags if lo <= bit else _EMPTY_SET
        return _EMPTY_SET

    def tainted_bits(self) -> list[int]:
        """Sorted list of bit positions that carry any taint."""
        return [bit for lo, hi, _ in self._runs for bit in range(lo, hi)]

    def tags(self) -> frozenset[int]:
        """Union of the tags over all bits."""
        runs = self._runs
        if len(runs) == 1:
            return runs[0][2]
        return intern_tags(_EMPTY_SET.union(*(tags for _, _, tags in runs)))

    def bits_of_tag(self, tag: int) -> list[int]:
        """Bit positions carrying a specific tag (one row of the ASCII
        art in Fig. 2)."""
        return [
            bit
            for lo, hi, tags in self._runs
            if tag in tags
            for bit in range(lo, hi)
        ]

    # ------------------------------------------------------------------
    # Propagation rules
    # ------------------------------------------------------------------
    def union(self, other: "BitTaint") -> "BitTaint":
        """Per-bit union: the rule for ``xor``, ``or`` and positional
        ``add``/``sub``."""
        runs_b = other._runs
        if not runs_b:
            return self
        runs_a = self._runs
        if not runs_a:
            return other
        if len(runs_a) == 1 and len(runs_b) == 1:
            (lo_a, hi_a, tags_a), (lo_b, hi_b, tags_b) = runs_a[0], runs_b[0]
            if hi_a < lo_b:
                return BitTaint._of((runs_a[0], runs_b[0]))
            if hi_b < lo_a:
                return BitTaint._of((runs_b[0], runs_a[0]))
            if tags_a is tags_b:
                # Same tags, overlapping or touching ranges: one run.
                return BitTaint._make_run(min(lo_a, lo_b), max(hi_a, hi_b), tags_a)
            if lo_a == lo_b and hi_a == hi_b:
                return BitTaint._make_run(lo_a, hi_a, intern_tags(tags_a | tags_b))
        return BitTaint._of(_union_runs(runs_a, runs_b))

    def shifted(self, amount: int) -> "BitTaint":
        """Translate every tainted bit by ``amount`` (negative = right
        shift); bits shifted below position 0 disappear."""
        runs = self._runs
        if amount == 0 or not runs:
            return self
        if len(runs) == 1:
            lo, hi, tags = runs[0]
            return BitTaint._make_run(max(lo + amount, 0), hi + amount, tags)
        if runs[0][0] + amount >= 0:
            return BitTaint._of(
                tuple([(lo + amount, hi + amount, tags) for lo, hi, tags in runs])
            )
        return BitTaint._of(
            tuple([
                (max(lo + amount, 0), hi + amount, tags)
                for lo, hi, tags in runs
                if hi + amount > 0
            ])
        )

    def masked(self, mask: int) -> "BitTaint":
        """``and`` with an untainted constant: keep taint only where the
        constant has a 1 bit."""
        out: list[Run] = []
        changed = False
        for lo, hi, tags in self._runs:
            full = (1 << (hi - lo)) - 1
            ones = (mask >> lo) & full
            if ones == full:
                out.append((lo, hi, tags))
                continue
            changed = True
            # Walk the 1-runs of the kept bits; the 0 bits between them
            # keep the pieces apart, so the result stays canonical.
            while ones:
                start = (ones & -ones).bit_length() - 1
                stretch = ones >> start
                length = (stretch ^ (stretch + 1)).bit_length() - 1
                out.append((lo + start, lo + start + length, tags))
                ones &= ~(((1 << length) - 1) << start)
        if not changed:
            return self
        return BitTaint._of(tuple(out))

    def truncated(self, width: int) -> "BitTaint":
        """Drop taint on bits at or above ``width`` (register narrowing,
        e.g. using ``al`` out of ``rax``)."""
        runs = self._runs
        if not runs or runs[-1][1] <= width:
            return self
        return BitTaint._of(
            tuple([
                (lo, hi if hi < width else width, tags)
                for lo, hi, tags in runs
                if lo < width
            ])
        )

    def smeared(self, width: int) -> "BitTaint":
        """Conservative rule for multiplication/division by a tainted or
        non-power-of-two value: every bit from the lowest tainted bit up to
        ``width - 1`` receives the union of all tags."""
        runs = self._runs
        if not runs:
            return self
        return BitTaint._make_run(runs[0][0], width, self.tags())

    def carry_extended(self, width: int) -> "BitTaint":
        """Conservative carry-aware add: each bit additionally receives
        the tags of every lower tainted bit.  Bits at or above ``width``
        are dropped."""
        runs = self._runs
        if not runs:
            return self
        out: list[Run] = []
        running = _EMPTY_SET
        for k, (lo, _, tags) in enumerate(runs):
            if lo >= width:
                break
            # The running union covers this run and the gap after it.
            end = runs[k + 1][0] if k + 1 < len(runs) else width
            running = _union_tags(running, tags) if running else tags
            if out and out[-1][2] is running:
                out[-1] = (out[-1][0], min(end, width), running)
            else:
                out.append((lo, min(end, width), running))
        return BitTaint._of(tuple(out))

    def sign_extended(self, from_width: int, to_width: int) -> "BitTaint":
        """Replicate the sign bit's taint into the widened bits
        (arithmetic right shift / ``movsx``)."""
        if to_width <= from_width or not self.at(from_width - 1):
            return self.truncated(to_width)
        # The sign bit's run is the last one below from_width: stretch it.
        runs = self.truncated(from_width)._runs
        lo, _, tags = runs[-1]
        return BitTaint._of(runs[:-1] + ((lo, to_width, tags),))

    # ------------------------------------------------------------------
    # Rendering helpers
    # ------------------------------------------------------------------
    def rows(self) -> dict[int, list[int]]:
        """``{tag: [bit, ...]}`` — the data behind one ASCII-art block."""
        out: dict[int, list[int]] = {}
        for lo, hi, tags in self._runs:
            for tag in tags:
                out.setdefault(tag, []).extend(range(lo, hi))
        return out

    def __repr__(self) -> str:
        if not self._runs:
            return "BitTaint()"
        parts = []
        for tag, bits in sorted(self.rows().items()):
            parts.append(f"{tag}:{_span(bits)}")
        return f"BitTaint({', '.join(parts)})"


def _canonical(runs: Iterable[Run]) -> tuple[Run, ...]:
    """Canonical run tuple from sorted, disjoint runs: drops empty runs
    and empty tag sets, interns tags and merges touching equal runs."""
    out: list[Run] = []
    for lo, hi, tags in runs:
        if lo >= hi or not tags:
            continue
        tags = intern_tags(frozenset(tags))
        if out and out[-1][1] == lo and out[-1][2] is tags:
            out[-1] = (out[-1][0], hi, tags)
        else:
            out.append((lo, hi, tags))
    return tuple(out)


def _union_runs(runs_a: tuple[Run, ...], runs_b: tuple[Run, ...]) -> tuple[Run, ...]:
    """Sweep both run lists left to right.  Each step emits the segment
    from the sweep position to the next cut point of either list; a
    segment covered by both sides gets the interned union of their
    tags."""
    out: list[Run] = []
    i = j = 0
    n_a, n_b = len(runs_a), len(runs_b)
    pos = min(runs_a[0][0], runs_b[0][0])
    while i < n_a and j < n_b:
        lo_a, hi_a, tags_a = runs_a[i]
        lo_b, hi_b, tags_b = runs_b[j]
        if lo_a < pos:
            lo_a = pos
        if lo_b < pos:
            lo_b = pos
        if lo_a < lo_b:
            start, end, tags = lo_a, min(hi_a, lo_b), tags_a
        elif lo_b < lo_a:
            start, end, tags = lo_b, min(hi_b, lo_a), tags_b
        else:
            start, end, tags = lo_a, min(hi_a, hi_b), _union_tags(tags_a, tags_b)
        if out and out[-1][1] == start and out[-1][2] is tags:
            out[-1] = (out[-1][0], end, tags)
        else:
            out.append((start, end, tags))
        pos = end
        if hi_a <= pos:
            i += 1
        if hi_b <= pos:
            j += 1
    # One side is used up; the other's first run may be partly swept.
    for lo, hi, tags in runs_a[i:] + runs_b[j:]:
        if lo < pos:
            lo = pos
        if out and out[-1][1] == lo and out[-1][2] is tags:
            out[-1] = (out[-1][0], hi, tags)
        else:
            out.append((lo, hi, tags))
    return tuple(out)


def _span(bits: list[int]) -> str:
    """Render a sorted bit list compactly, e.g. ``[1-8,11]``."""
    runs: list[str] = []
    start = prev = bits[0]
    for bit in bits[1:]:
        if bit == prev + 1:
            prev = bit
            continue
        runs.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = bit
    runs.append(str(start) if start == prev else f"{start}-{prev}")
    return "[" + ",".join(runs) + "]"


_EMPTY = BitTaint()
