"""Burrows-Wheeler block sorting with Bzip2's structures.

``histogram`` is the paper's Listing 3 verbatim (modulo Python): the
reverse loop that zeroes ``quadrant[i]``, slides the two-byte window
``j``, and increments ``ftab[j]`` — the data-flow gadget behind the SGX
attack of Section V.  ``main_sort`` buckets rotations by their two-byte
prefix using the cumulative ``ftab`` and finishes each bucket with a
budget-limited comparison sort; exhausting the budget (too-repetitive
input) raises :class:`BudgetExhausted` and the caller retreats to
``fallback_sort``, reproducing the control-flow divergence of Fig. 6.

``fallback_sort`` is a prefix-doubling rotation sort: simpler than
Bzip2's bucket-bitmap version but with the same role (always terminates,
slower on typical input) and the same observable property the
fingerprinting attack uses — time spent in it grows with repetitiveness.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import accumulate
from typing import Callable, Optional

from repro.exec.arrays import TArray
from repro.exec.context import ExecutionContext
from repro.taint.value import value_of

#: Signature shared by :func:`histogram` and the ``histogram_fn`` seam.
HistogramFn = Callable[..., TArray]

FTAB_LEN = 65537
# Work budget per input byte.  Bzip2 uses workFactor=30 on top of its
# quadrant acceleration; without that acceleration the equivalent
# calibration is ~300: English-like text costs 30-90 units/byte here,
# strongly repetitive input costs thousands and retreats to fallbackSort.
DEFAULT_WORK_FACTOR = 300
FTAB_MISALIGN = 48  # ftab is not cache-line aligned (Section IV-D)

SITE_FTAB = "mainSort/ftab[j]++"
SITE_QUADRANT = "mainSort/quadrant[i]=0"
SITE_BLOCK = "mainSort/block[i]"


class BudgetExhausted(Exception):
    """mainSort's work budget ran out: input is too repetitive."""


def histogram(
    ctx: ExecutionContext,
    block: TArray,
    nblock: int,
    ftab: Optional[TArray] = None,
    quadrant: Optional[TArray] = None,
) -> TArray:
    """Listing 3: build the two-byte frequency table.

    Iterates the block in reverse; at each ``i`` the index ``j`` holds
    ``(block[i] << 8) | block[i+1]`` (wrapping at the ends), and
    ``ftab[j]`` is incremented — an input-dependent memory access that
    leaks both bytes at cache-line granularity.

    Returns the (cumulative-ready) frequency table.
    """
    if ftab is None:
        ftab = ctx.array("ftab", FTAB_LEN, elem_size=4, misalign=FTAB_MISALIGN)
    if quadrant is None:
        quadrant = ctx.array("quadrant", max(nblock, 1), elem_size=2)
    ftab.fill(0)

    tick = ctx.tick
    quadrant_set = quadrant.set
    block_get = block.get
    ftab_add = ftab.add
    j = block_get(0, site=SITE_BLOCK) << 8
    for i in range(nblock - 1, -1, -1):
        tick(3)
        quadrant_set(i, 0, site=SITE_QUADRANT)  # line 8
        j = (j >> 8) | ((block_get(i, site=SITE_BLOCK) & 0xFF) << 8)  # line 9
        ftab_add(j, 1, site=SITE_FTAB)  # line 10 -- THE GADGET
    return ftab


def main_sort(
    ctx: ExecutionContext,
    block: TArray,
    nblock: int,
    budget: int,
    ftab: Optional[TArray] = None,
    quadrant: Optional[TArray] = None,
    histogram_fn: Optional[HistogramFn] = None,
) -> list[int]:
    """Sort all rotations of ``block`` (mainSort).

    ``ftab``/``quadrant`` may be supplied by the caller (the SGX attack
    pre-allocates them so it can revoke their page permissions before
    the victim runs).  ``histogram_fn`` swaps the Listing 3 histogram for
    a signature-compatible replacement: the seam the mitigation apply
    layer patches, with a function that runs :func:`histogram` itself
    over a covered ``ftab`` (``repro.mitigations.apply``).

    Raises:
        BudgetExhausted: the comparison budget ran out; the caller must
            retry with :func:`fallback_sort`.
    """
    build_histogram = histogram if histogram_fn is None else histogram_fn
    with ctx.func("mainSort"):
        ftab = build_histogram(ctx, block, nblock, ftab=ftab, quadrant=quadrant)

        # Cumulative counts: ftab[j] = first ptr slot after bucket j.
        values = block.snapshot()
        counts = list(accumulate(ftab.snapshot()))
        ctx.tick(FTAB_LEN // 16)

        # Rotation offsets reach index (nblock-1) + 2 + nblock, so a
        # tripled (quadrupled for degenerate tiny blocks) flat byte
        # buffer replaces every ``% nblock`` with plain indexing.
        buf = bytes(values) * (3 if nblock >= 2 else 4)

        # Bucket rotations by their 2-byte prefix (stable fill).
        ptr = [0] * nblock
        next_slot = [0] + counts[: FTAB_LEN - 2]
        for i in range(nblock):
            j = (buf[i] << 8) | buf[i + 1]
            ptr[next_slot[j]] = i
            next_slot[j] += 1
        ctx.tick(nblock)

        # Sort within each bucket, comparing rotations from offset 2 on.
        # The match length ``m`` is exact (identical to the byte-at-a-
        # time walk it replaces) because the budget drain and the tick
        # stream — the side channel itself — are derived from it.
        # Budget and ticks live in closure ints; the ticks are flushed
        # before BudgetExhausted and after the bucket loop.  The profiler
        # reads the clock only at function marks, so every interval is
        # the one a per-comparison tick gives.
        left = budget
        ticks = 0

        def compare(a: int, b: int) -> int:
            nonlocal left, ticks
            pa, pb = a + 2, b + 2
            n = nblock
            m = 0
            # Short common prefixes dominate typical text: scan a few
            # bytes directly before paying for slice comparisons.
            while m < n and m < 12:
                if buf[pa + m] != buf[pb + m]:
                    break
                m += 1
            else:
                # Long match: leap by chunk equality, then pin down the
                # mismatch inside the failing chunk.
                while m < n:
                    step = n - m
                    if step > 256:
                        step = 256
                    ca = buf[pa + m : pa + m + step]
                    if ca == buf[pb + m : pb + m + step]:
                        m += step
                        continue
                    cb = buf[pb + m : pb + m + step]
                    lo = 0
                    while ca[lo] == cb[lo]:
                        lo += 1
                    m += lo
                    break
            left -= m + 1
            ticks += (m >> 2) + 1
            if left < 0:
                ctx.tick(ticks)
                raise BudgetExhausted(
                    f"too repetitive; used more than {budget} work units"
                )
            if m >= n:
                return 0
            return -1 if buf[pa + m] < buf[pb + m] else 1

        start = 0
        for j in range(FTAB_LEN - 1):
            end = counts[j]
            if end - start > 1:
                ptr[start:end] = sorted(ptr[start:end], key=cmp_to_key(compare))
            start = end
        ctx.tick(ticks)
        return ptr


def fallback_sort(ctx: ExecutionContext, block: TArray, nblock: int) -> list[int]:
    """Sort all rotations by prefix doubling (fallbackSort).

    Always terminates, even on fully periodic blocks (where distinct
    rotations compare equal and any tie order yields the same BWT).
    """
    # numpy only here: a campaign worker that reads SITE_FTAB but never
    # sorts a block does not pay for importing it.
    import numpy as np

    with ctx.func("fallbackSort"):
        n = nblock
        rank = np.array(block.snapshot(), dtype=np.int64)
        order = np.argsort(rank, kind="stable")
        ctx.tick(n)

        h = 1
        while h < n:
            # Stable sort of the current order by (rank[i], rank[i+h]).
            second = np.roll(rank, -h)
            order = order[np.lexsort((second[order], rank[order]))]
            first_sorted, second_sorted = rank[order], second[order]
            bumps = (first_sorted[1:] != first_sorted[:-1]) | (
                second_sorted[1:] != second_sorted[:-1]
            )
            new_rank = np.empty(n, dtype=np.int64)
            new_rank[order[0]] = 0
            new_rank[order[1:]] = np.cumsum(bumps)
            ctx.tick(3 * n)
            rank = new_rank
            if rank[order[-1]] == n - 1:
                break
            h *= 2
        return order.tolist()


def block_sort(
    ctx: ExecutionContext,
    block: TArray,
    nblock: int,
    full_block_size: int,
    work_factor: int = DEFAULT_WORK_FACTOR,
    histogram_fn: Optional[HistogramFn] = None,
) -> tuple[list[int], str]:
    """Bzip2's sorting dispatch (Fig. 6).

    Full blocks start in ``mainSort`` and abandon to ``fallbackSort``
    when the work budget runs out; short blocks (the tail of a file) go
    straight to ``fallbackSort``.

    Returns:
        ``(ptr, path)`` where ``ptr`` is the sorted rotation order and
        ``path`` is ``"mainSort"``, ``"mainSort+fallbackSort"`` or
        ``"fallbackSort"`` — the control flow the fingerprinting attack
        observes.
    """
    if nblock < full_block_size:
        return fallback_sort(ctx, block, nblock), "fallbackSort"
    try:
        ptr = main_sort(
            ctx,
            block,
            nblock,
            budget=work_factor * nblock,
            histogram_fn=histogram_fn,
        )
        return ptr, "mainSort"
    except BudgetExhausted:
        return fallback_sort(ctx, block, nblock), "mainSort+fallbackSort"
