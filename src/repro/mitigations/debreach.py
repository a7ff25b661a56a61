"""Debreach-style taint-guarded compression: keep secrets out of LZ77
match search.

Debreach (PAPERS.md) shows the BREACH channel closes if the compressor
never creates cross-references between secret bytes and anything else:
the secret then contributes only literals, so attacker-controlled input
cannot shorten the output by matching against it.  This module applies
that transform to the repo's zlib-style deflate:

* positions whose 3-byte hash window touches a guarded span are never
  inserted into the hash chain (``head``/``prev`` never point *at* a
  secret);
* match extension stops at a guarded-span boundary on both the match
  source and the current position (a match never *covers* a secret
  byte).

The rolling ``ins_h`` hash is still advanced over guarded bytes so hash
state downstream of the secret is identical to stock deflate — only the
table writes and the match lengths change.  Output stays a valid token
stream (:func:`repro.compression.lz77.deflate_decompress` inverts it);
the cost is the compression lost on the guarded spans, which the oracle
mitigation sweeps report as size overhead.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.compression.lz77 import (
    MAX_CHAIN,
    MAX_DIST,
    MAX_MATCH,
    MIN_MATCH,
    NICE_LENGTH,
    NIL,
    WMASK,
    SITE_HEAD,
    SITE_PREV,
    SITE_WINDOW,
    _Deflater,
    deflate_compress,
)
from repro.compression.gzip_container import gzip_compress
from repro.exec.context import ExecutionContext
from repro.taint.value import value_of

Span = tuple[int, int]


def _next_guard_table(n: int, spans: Sequence[Span]) -> list[int]:
    """``table[i]`` = first guarded position >= ``i`` (or ``n``)."""
    guarded = [False] * n
    for start, end in spans:
        for i in range(max(0, start), min(n, end)):
            guarded[i] = True
    table = [n] * (n + 1)
    nxt = n
    for i in range(n - 1, -1, -1):
        if guarded[i]:
            nxt = i
        table[i] = nxt
    return table


class GuardedDeflater(_Deflater):
    """A :class:`_Deflater` whose hash chain excludes guarded spans."""

    def __init__(self, data: bytes, ctx: ExecutionContext, spans: Sequence[Span]):
        super().__init__(data, ctx)
        self._next_guard = _next_guard_table(self.n, spans)

    def _insertable(self, s: int) -> bool:
        # The 3-byte string at s must be wholly outside guarded spans.
        return self._next_guard[s] >= s + self.hash_bytes

    def insert_string(self, s: int) -> int:
        # Keep the rolling hash bit-identical to stock deflate, but
        # never let head/prev reference a guarded position.
        self.update_hash(self.window.get(s + MIN_MATCH - 1))
        if not self._insertable(s):
            return NIL
        hash_head = self.head.get(self.ins_h, site=SITE_HEAD)
        self.prev.set(s & WMASK, hash_head, site=SITE_PREV)
        self.head.set(self.ins_h, s, site=SITE_HEAD)
        return hash_head

    def longest_match(self, strstart: int, cur_match: int, prev_length: int):
        # Stock longest_match with one change: max_possible is clamped
        # so neither the copy source nor the destination may run into a
        # guarded span.
        window, n = self.window, self.n
        next_guard = self._next_guard
        best_len = prev_length
        best_start = NIL
        limit = strstart - MAX_DIST if strstart > MAX_DIST else -1
        chain_length = MAX_CHAIN
        dest_cap = min(MAX_MATCH, n - strstart, next_guard[strstart] - strstart)

        while cur_match > limit and chain_length > 0:
            chain_length -= 1
            self.ctx.tick(2)
            max_possible = min(dest_cap, next_guard[cur_match] - cur_match)
            if best_len >= 1 and (
                best_len >= max_possible
                or strstart + best_len >= n
                or window.get(cur_match + best_len, site=SITE_WINDOW)
                != window.get(strstart + best_len, site=SITE_WINDOW)
            ):
                cur_match = value_of(self.prev.get(cur_match & WMASK))
                continue
            length = 0
            while (
                length < max_possible
                and window.get(cur_match + length, site=SITE_WINDOW)
                == window.get(strstart + length, site=SITE_WINDOW)
            ):
                length += 1
                self.ctx.tick(1)
            if length > best_len:
                best_len = length
                best_start = cur_match
                if length >= NICE_LENGTH or length >= max_possible:
                    break
            cur_match = value_of(self.prev.get(cur_match & WMASK))

        if best_start == NIL:
            return prev_length, NIL
        return best_len, best_start


def guarded_deflate_compress(
    data: bytes,
    spans: Sequence[Span],
    ctx: Optional[ExecutionContext] = None,
) -> bytes:
    """Deflate ``data`` with the spans excluded from match search.

    Same container as :func:`repro.compression.lz77.deflate_compress`
    (its decompressor inverts this); with no spans the output is
    byte-identical to the stock compressor.
    """
    return deflate_compress(data, ctx, _guarded(spans))


def guarded_gzip_compress(
    data: bytes,
    spans: Sequence[Span],
    ctx: Optional[ExecutionContext] = None,
    mtime: int = 0,
) -> bytes:
    """The gzip container around :func:`guarded_deflate_compress`."""
    return gzip_compress(data, ctx, mtime, _guarded(spans))


def _guarded(spans: Sequence[Span]):
    """The ``deflater`` argument that builds a :class:`GuardedDeflater`."""
    return lambda data, ctx: GuardedDeflater(data, ctx, spans)
