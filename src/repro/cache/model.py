"""Set-associative sliced cache with LRU replacement and CAT masks.

Geometry defaults model a small LLC: 4 slices x 1024 sets x 16 ways of
64-byte lines (4 MiB).  Addresses are *physical*; set index bits sit
directly above the line offset, and the slice is chosen by an
XOR-of-address-bits hash in the style reverse engineered by Maurice et
al. / Liu et al. (the paper's reference [38]).

Intel CAT is modelled faithfully to its architectural contract: a
class-of-service (COS) capacity bitmask constrains which ways an access
may *fill on a miss*; hits are served from any way.  This is exactly the
property the paper exploits — "Intel CAT can effectively reduce the
cache to a single way" for the victim/attacker partition, making
evictions deterministic while other traffic is confined elsewhere.

The access path is the hottest loop in the whole simulator (every
victim instruction, every prime, every probe, every noise line lands
here), so the line state lives in flat preallocated ``array('q')``
buffers rather than per-set dicts, a resident-line index answers every
hit test with one dict lookup, the slice hash is an integer popcount
plus a per-line memo, and latency noise draws the raw words of its
standard-normal variates in bulk and transforms them only when a
latency is read.  All of it is bit-compatible with the straightforward
model it replaced: same hit/miss/eviction stream, same RNG consumption,
same latencies to the last float bit.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from math import cos as _cos, log as _log, pi as _pi, sin as _sin
from typing import Optional

from repro import obs

_TWOPI = 2.0 * _pi

LINE_BITS = 6
LINE_SIZE = 1 << LINE_BITS


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of the simulated LLC.

    ``replacement`` selects the victim policy: ``"lru"`` (true LRU by
    access stamp) or ``"plru"`` (tree pseudo-LRU, what real LLC ways
    implement; requires a power-of-two way count).
    """

    n_slices: int = 4
    sets_per_slice: int = 1024
    ways: int = 16
    hit_latency: float = 40.0
    miss_latency: float = 200.0
    noise_sigma: float = 6.0
    seed: int = 2024
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.replacement not in ("lru", "plru"):
            raise ValueError(f"unknown replacement {self.replacement!r}")
        if self.replacement == "plru" and self.ways & (self.ways - 1):
            raise ValueError("plru needs a power-of-two way count")

    @property
    def set_bits(self) -> int:
        return (self.sets_per_slice - 1).bit_length()

    @property
    def capacity_bytes(self) -> int:
        return self.n_slices * self.sets_per_slice * self.ways * LINE_SIZE


# Slice-hash bit masks (per output bit, XOR-parity of the selected
# physical address bits), shaped after the reverse-engineered Intel
# functions.  Only bits >= LINE_BITS participate, so the slice (and the
# set, whose index bits sit directly above the offset) depend only on
# the line address — which is what lets Cache memoise per line.
_SLICE_MASKS = (
    0x1B5F575440,
    0x2EB5FAA880,
)

# Parity of every 16-bit value: the lookup table of the vectorised
# slice hash (numpy>=1.24 has no bitwise_count).
_PARITY16 = bytes(bin(i).count("1") & 1 for i in range(1 << 16))


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    latency: float
    evicted: Optional[int] = None  # line address pushed out, if any


@dataclass(slots=True)
class BatchAccessResult:
    """Outcome of one :meth:`Cache.access_many` call: per-access columns
    in input order, equal to what a scalar :meth:`Cache.access` loop
    would have produced access by access."""

    hits: "np.ndarray"  # bool, per access
    latencies: "np.ndarray"  # float64, per access
    evicted: list[Optional[int]]  # per access, line address or None

    @property
    def n_hits(self) -> int:
        return int(self.hits.sum())


class PlruTree:
    """Tree pseudo-LRU state for one set.

    ``bits[node]`` points toward the *less recently used* subtree
    (0 = left, 1 = right); touching a way flips the bits on its root
    path to point away from it.  Victim selection follows the bits,
    constrained to ways the access's CAT mask allows (a node whose
    indicated subtree holds no allowed way is overridden).
    """

    __slots__ = ("ways", "bits")

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.bits = [0] * (ways - 1)

    def touch(self, way: int) -> None:
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:  # accessed left subtree: point at right
                self.bits[node] = 1
                node, hi = 2 * node + 1, mid
            else:
                self.bits[node] = 0
                node, lo = 2 * node + 2, mid

    def victim(self, allowed) -> int:
        mask = 0
        for w in allowed:
            mask |= 1 << w
        return self.victim_mask(mask)

    def victim_mask(self, allowed_mask: int) -> int:
        """Victim way given the allowed ways as a bitmask (bit w set =
        way w allowed); subtree occupancy tests are single AND ops."""
        bits = self.bits
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            left_ok = allowed_mask & ((1 << mid) - (1 << lo))
            right_ok = allowed_mask & ((1 << hi) - (1 << mid))
            go_right = bits[node] == 1
            if go_right and not right_ok:
                go_right = False
            elif not go_right and not left_ok:
                go_right = True
            if go_right:
                node, lo = 2 * node + 2, mid
            else:
                node, hi = 2 * node + 1, mid
        return lo


# How many standard-normal variates one batch of latency noise holds,
# and the MT bits its uniforms take: two 32-bit words per random().
_Z_BATCH = 512
_Z_BITS = 64 * _Z_BATCH

# |z| of a Box-Muller variate from 53-bit uniforms is at most
# sqrt(-2*log(2**-53)) = sqrt(106*log(2)) < 8.58; a probe whose threshold
# sits further than this many sigmas from both latency modes reads the
# same verdict whatever variate it gets.
_Z_BOUND = 8.6


def _box_muller(words: int) -> list[float]:
    """The ``_Z_BATCH`` standard-normal variates ``Random.gauss`` would
    return from the MT words ``words`` (one ``getrandbits(_Z_BITS)``).

    ``getrandbits`` fills its result one ``genrand_uint32`` word at a
    time, in generator order, in native byte order; ``random()`` reads
    the same words two at a time as ``((w0 >> 5) * 2**26 + (w1 >> 6)) /
    2**53``.  numpy does the IEEE operations, which round exactly as
    CPython's do; ``log``, ``cos`` and ``sin`` go through :mod:`math`,
    because numpy's ``log`` differs from libm's in the last bit on some
    inputs.
    """
    import numpy as np

    w = np.frombuffer(words.to_bytes(_Z_BITS // 8, sys.byteorder), np.uint32)
    u = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    pairs = _Z_BATCH // 2
    x2pi = (u[0::2] * _TWOPI).tolist()
    logs = np.fromiter(map(_log, (1.0 - u[1::2]).tolist()), float, pairs)
    g2rad = np.sqrt(-2.0 * logs)
    z = np.empty(_Z_BATCH)
    z[0::2] = np.fromiter(map(_cos, x2pi), float, pairs) * g2rad
    z[1::2] = np.fromiter(map(_sin, x2pi), float, pairs) * g2rad
    return z.tolist()


def _line_tags(paddrs) -> list[int]:
    """Line tags of an address list or int64 address vector."""
    if hasattr(paddrs, "dtype"):
        return (paddrs >> LINE_BITS).tolist()
    return [p >> LINE_BITS for p in paddrs]


class WorkingSet:
    """A fixed, ordered list of lines that a caller walks many times,
    made by :meth:`Cache.working_set` and accepted by every batch
    access method in place of an address list.

    ``tags`` are the line tags in walk order.  ``idx[k]`` is the flat
    way index that position ``k`` held when last walked, and ``stale``
    holds the positions whose index may be out of date; every position
    starts stale.  Invariant: a position not in ``stale`` holds a tag
    resident at ``idx[k]``.  The cache keeps it by marking a position
    stale whenever its tag leaves (eviction, :meth:`Cache.flush`,
    :meth:`Cache.clear`).  ``idx`` is None when the set walks the plain
    per-address loop instead: under PLRU replacement, or when a tag
    repeats within the set.
    """

    __slots__ = ("cache", "tags", "idx", "stale", "offsets")

    def __init__(self, cache: "Cache", tags: list[int]) -> None:
        self.cache = cache
        self.tags = tags
        self.idx = None  # int64 flat way index per position
        self.stale: set[int] = set(range(len(tags)))
        self.offsets = None  # int64 k + 1 per position k

    def __len__(self) -> int:
        return len(self.tags)


class Cache:
    """The shared last-level cache.

    Line state is two flat arrays indexed ``(slice * sets + set) * ways
    + way``: ``_tags`` (line tag, -1 = empty) and ``_stamps`` (global
    access stamp for LRU).  ``_slot`` indexes them: it maps each resident
    line tag to its flat index, so a hit is one dict lookup and only a
    miss computes the line's set (``_locate``) and scans for a victim
    way.  ``_fill``, :meth:`flush` and :meth:`clear` keep it equal to
    the non-empty entries of ``_tags``.  ``cos_masks`` maps a class of
    service to the tuple of way indices its misses may fill; COS 0
    defaults to all ways.

    A caller that walks the same lines again and again (a Prime+Probe
    sweep, the OS-pollution lines of every fault) makes them a
    :class:`WorkingSet` once (:meth:`working_set`).  Its positions keep
    their flat way index between walks, so each run of resident
    positions is stamped in one numpy assignment into an int64 view of
    ``_stamps``; only positions marked stale walk the per-address loop.
    ``_fill``, :meth:`flush` and :meth:`clear` mark stale every position
    of a line that leaves, through ``_members`` (line tag -> working-set
    positions).  Under PLRU, or when a line repeats within the set, the
    whole set walks the per-address loop.

    Latency noise is ``rng.gauss(base, sigma)``; CPython's gauss
    computes ``mu + z * sigma`` from a mu/sigma-independent variate
    stream, so the variates come in batches of ``_Z_BATCH`` and the
    affine map is applied here — identical latencies, a fraction of the
    work.  A batch is drawn as the MT words its uniforms take, in one
    ``getrandbits`` call, when the cursor ``_zi`` first needs it; the
    Box-Muller transform (``_box_muller``, the exact float ops of
    ``Random.gauss``) runs when a value of it is first *read*.  So the
    RNG state after any sequence of accesses is the one ``gauss`` calls
    would leave, and a batch nobody reads is never transformed.

    Noise is only drawn for accesses whose latency is *observed*
    (:meth:`access` / :meth:`access_timed`).  Fill traffic that nobody
    times — priming, background noise, OS pollution, the victim's own
    touches — goes through :meth:`access_silent`, which updates line
    state identically but skips the draw.  This cannot change any
    timing decision: a Box-Muller variate from 53-bit uniforms is
    bounded by ``sqrt(-2*log(2**-53))`` < 8.58 sigma, while the default
    hit/miss thresholds sit more than 13 sigma from either latency
    mode, so *which* variate a timed access happens to get can never
    flip a hit/miss classification.  :meth:`access_many_missed`, the
    probe's entry point, uses the same bound: when its threshold sits
    more than ``_Z_BOUND`` sigmas from both modes it advances the
    cursor past the probe's variates without reading them, and returns
    the misses.
    """

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self._rng = random.Random(self.config.seed)
        self._stamp = 0
        cfg = self.config
        n = cfg.n_slices * cfg.sets_per_slice * cfg.ways
        self._tags = array("q", [-1]) * n
        self._stamps = array("q", [0]) * n
        self._ways = cfg.ways
        self._nsets = cfg.sets_per_slice
        self._set_mask = cfg.sets_per_slice - 1
        self._plru_on = cfg.replacement == "plru"
        self._slot: dict[int, int] = {}  # resident line tag -> flat way index
        self._plru: dict[int, PlruTree] = {}  # set base -> tree
        self._loc: dict[int, tuple[int, int, int]] = {}  # line tag -> (sl, st, base)
        self._cos_memo: dict[tuple[int, ...], int] = {}  # allowed tuple -> bitmask
        # line tag -> [(working set, position)]: read only when a line
        # leaves the cache, to mark its memberships stale.
        self._members: dict[int, list[tuple[WorkingSet, int]]] = {}
        self._stamps_view = None  # int64 numpy view of _stamps, made lazily
        self.cos_masks: dict[int, tuple[int, ...]] = {
            0: tuple(range(cfg.ways))
        }
        self._hits = 0
        self._misses = 0
        self._flushes = 0
        self._evictions = 0
        # Snapshot of the counters at the last publish_stats() call, so
        # repeated publishes emit deltas, not re-counted totals.
        self._published = (0, 0, 0, 0)
        # Latency noise: the current batch's MT words, its variates once
        # read (None until then), its length (0 before the first draw)
        # and the cursor into it.
        self._zwords = 0
        self._zbuf: Optional[list[float]] = None
        self._zlen = 0
        self._zi = 0
        self._hit_lat = cfg.hit_latency
        self._miss_lat = cfg.miss_latency
        self._sigma = cfg.noise_sigma

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "flushes": self._flushes,
            "evictions": self._evictions,
        }

    def publish_stats(self, prefix: str = "cache") -> None:
        """Publish hit/miss/eviction/flush counts to :mod:`repro.obs`.

        Deltas since the previous publish, so end-of-run publishing from
        several phases (or attacks sharing a cache) accumulates each
        access exactly once.  A plain no-op while observability is
        disabled; never called from the per-access hot path."""
        if not obs.enabled():
            return
        counts = (self._hits, self._misses, self._evictions, self._flushes)
        last = self._published
        self._published = counts
        for name, now, before in zip(
            ("hits", "misses", "evictions", "flushes"), counts, last
        ):
            if now != before:
                obs.counter_add(f"{prefix}.{name}", now - before)

    # -- address mapping -------------------------------------------------
    def slice_of(self, paddr: int) -> int:
        if self.config.n_slices == 1:
            return 0
        bits = (self.config.n_slices - 1).bit_length()
        out = 0
        for k in range(bits):
            out |= ((paddr & _SLICE_MASKS[k]).bit_count() & 1) << k
        return out % self.config.n_slices

    def set_of(self, paddr: int) -> int:
        return (paddr >> LINE_BITS) & self._set_mask

    def location(self, paddr: int) -> tuple[int, int]:
        """(slice, set) a physical address maps to."""
        sl, st, _ = self._locate(paddr >> LINE_BITS)
        return sl, st

    def locations_for_range(
        self, base: int, n_lines: int
    ) -> list[tuple[int, int]]:
        """(slice, set) for ``n_lines`` consecutive lines from ``base``
        — :meth:`location` of each, computed vectorised.  This is how
        attacker pools precompute the slicing function over their whole
        memory without paying the per-address hash a hundred thousand
        times."""
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a core dep
            return [
                self.location(base + k * LINE_SIZE) for k in range(n_lines)
            ]
        tags = (base >> LINE_BITS) + np.arange(n_lines, dtype=np.int64)
        sets = tags & self._set_mask
        if self.config.n_slices == 1:
            slices = np.zeros(n_lines, dtype=np.int64)
        else:
            paddrs = tags << LINE_BITS
            bits = (self.config.n_slices - 1).bit_length()
            lut = np.frombuffer(_PARITY16, dtype=np.uint8)
            slices = np.zeros(n_lines, dtype=np.int64)
            for k in range(bits):
                v = paddrs & _SLICE_MASKS[k]
                v = v ^ (v >> 32)
                v = v ^ (v >> 16)
                slices |= lut[v & 0xFFFF].astype(np.int64) << k
            slices %= self.config.n_slices
        return list(zip(slices.tolist(), sets.tolist()))

    def _locate(self, tag: int) -> tuple[int, int, int]:
        """(slice, set, flat way-array base) for a line tag, memoised —
        the slice hash and set index depend only on the line address."""
        loc = self._loc.get(tag)
        if loc is None:
            paddr = tag << LINE_BITS
            sl = self.slice_of(paddr)
            st = tag & self._set_mask
            loc = self._loc[tag] = (sl, st, (sl * self._nsets + st) * self._ways)
        return loc

    # -- the access path -------------------------------------------------
    def _draw_z(self) -> None:
        """Start the next batch: draw the MT words its ``_Z_BATCH``
        variates take, in one call; the transform waits for a read."""
        self._zwords = self._rng.getrandbits(_Z_BITS)
        self._zbuf = None
        self._zlen = _Z_BATCH

    def _zvalues(self) -> list[float]:
        """The current batch's variates, transformed on first read."""
        buf = self._zbuf
        if buf is None:
            buf = self._zbuf = _box_muller(self._zwords)
        return buf

    def _next_z(self) -> float:
        """Next standard-normal variate, from the current batch."""
        i = self._zi
        if i >= self._zlen:
            self._draw_z()
            i = 0
        self._zi = i + 1
        return self._zvalues()[i]

    def _latency(self, base: float) -> float:
        lat = base + self._next_z() * self._sigma
        return lat if lat > 1.0 else 1.0

    def _fill(self, tag: int, cos: int) -> Optional[int]:
        """Miss path: pick a victim way under ``cos``'s mask, install
        ``tag``; returns the evicted line address (or None)."""
        base = self._locate(tag)[2]
        plru = None
        if self._plru_on:
            plru = self._plru.get(base)
            if plru is None:
                plru = self._plru[base] = PlruTree(self._ways)
        tags = self._tags
        allowed = self.cos_masks.get(cos)
        if allowed is None:
            allowed = self.cos_masks[0]
        evicted: Optional[int] = None
        victim_way = -1
        for w in allowed:
            if tags[base + w] == -1:
                victim_way = w
                break
        if victim_way < 0:
            if plru is not None:
                mask = self._cos_memo.get(allowed)
                if mask is None:
                    mask = 0
                    for w in allowed:
                        mask |= 1 << w
                    self._cos_memo[allowed] = mask
                victim_way = plru.victim_mask(mask)
            else:
                stamps = self._stamps
                best = 1 << 62
                for w in allowed:
                    s = stamps[base + w]
                    if s < best:
                        best = s
                        victim_way = w
            old = tags[base + victim_way]
            del self._slot[old]
            self._leave(old)
            evicted = old << LINE_BITS
            self._evictions += 1
        idx = base + victim_way
        tags[idx] = tag
        self._slot[tag] = idx
        self._stamps[idx] = self._stamp
        if plru is not None:
            plru.touch(victim_way)
        return evicted

    def _leave(self, tag: int) -> None:
        """Mark stale every working-set position holding ``tag``, which
        is leaving the cache."""
        for ws, k in self._members.get(tag, ()):
            ws.stale.add(k)

    def _hit(self, idx: int) -> None:
        """Hit path: restamp the resident line at flat index ``idx``
        and, under PLRU, touch its way (the tree exists: ``_fill`` made
        it when the line was installed)."""
        self._stamps[idx] = self._stamp
        if self._plru_on:
            way = idx % self._ways
            self._plru[idx - way].touch(way)
        self._hits += 1

    def access(self, paddr: int, cos: int = 0) -> AccessResult:
        """Load/store the line containing ``paddr`` under class ``cos``."""
        tag = paddr >> LINE_BITS
        self._stamp += 1
        idx = self._slot.get(tag)
        if idx is not None:
            self._hit(idx)
            return AccessResult(True, self._latency(self._hit_lat))
        self._misses += 1
        evicted = self._fill(tag, cos)
        return AccessResult(False, self._latency(self._miss_lat), evicted)

    def access_timed(self, paddr: int, cos: int = 0) -> float:
        """:meth:`access`, returning just the latency: no result
        object."""
        self._stamp += 1
        z = self._next_z()
        tag = paddr >> LINE_BITS
        idx = self._slot.get(tag)
        if idx is None:
            self._misses += 1
            self._fill(tag, cos)
            lat = self._miss_lat + z * self._sigma
        else:
            self._hit(idx)
            lat = self._hit_lat + z * self._sigma
        return lat if lat > 1.0 else 1.0

    def access_silent(self, paddr: int, cos: int = 0) -> None:
        """Line-state update for an access nobody times (prime fills,
        noise traffic, the victim's own touches).  Identical hit/miss/
        eviction behaviour to :meth:`access`; skips the latency draw —
        see the class docstring for why that is unobservable."""
        tag = paddr >> LINE_BITS
        self._stamp += 1
        idx = self._slot.get(tag)
        if idx is None:
            self._misses += 1
            self._fill(tag, cos)
        else:
            self._hit(idx)

    # -- the batch access path -------------------------------------------
    #
    # Accesses are stateful (an eviction changes what the next access
    # hits), so the hit lookups and fills stay sequential; what batching
    # buys is doing the *stateless* work — the address -> line-tag shift
    # and the Box-Muller noise stream — for the whole vector at once,
    # plus hoisting the per-call attribute traffic out of the loop.
    # Every method consumes RNG state, counters, stamps, and PLRU bits
    # exactly as the equivalent scalar loop would
    # (tests/test_cache_batch.py pins the equivalence).

    def _take_z(self, n: int, read: bool = True):
        """Consume the next ``n`` standard-normal variates — the exact
        subsequence ``n`` :meth:`_next_z` calls would return.  With
        ``read`` false, only advance the cursor past them: the same
        batch draws, no transform, None returned.  Landing exactly on a
        batch end draws nothing either way."""
        import numpy as np

        out = np.empty(n) if read else None
        i = self._zi
        filled = 0
        while filled < n:
            if i >= self._zlen:
                self._draw_z()
                i = 0
            take = min(n - filled, self._zlen - i)
            if read:
                out[filled : filled + take] = self._zvalues()[i : i + take]
            i += take
            filled += take
        self._zi = i
        return out

    def working_set(self, paddrs) -> WorkingSet:
        """A :class:`WorkingSet` of the lines holding ``paddrs`` (a list
        or int64 vector), in order, for repeated batch walks."""
        tags = _line_tags(paddrs)
        ws = WorkingSet(self, tags)
        if self._plru_on or len(set(tags)) != len(tags):
            return ws
        import numpy as np

        if self._stamps_view is None:
            self._stamps_view = np.frombuffer(self._stamps, dtype=np.int64)
        ws.idx = np.zeros(len(tags), dtype=np.int64)
        ws.offsets = np.arange(1, len(tags) + 1, dtype=np.int64)
        members = self._members
        for k, tag in enumerate(tags):
            members.setdefault(tag, []).append((ws, k))
        return ws

    def _walk(self, paddrs, cos: int, hits_out, evicted_out) -> None:
        """Walk an address list or a :class:`WorkingSet`."""
        if type(paddrs) is WorkingSet:
            if paddrs.cache is not self:
                raise ValueError("working set belongs to another cache")
            if paddrs.idx is not None:
                self._working_set_walk(paddrs, cos, hits_out, evicted_out)
                return
            lines = paddrs.tags
        else:
            lines = _line_tags(paddrs)
        self._batch_walk(lines, cos, hits_out, evicted_out)

    def _working_set_walk(
        self, ws: WorkingSet, cos: int, hits_out, evicted_out
    ) -> None:
        """Each run of positions that are not stale is a run of hits: one
        numpy assignment writes the stamps the loop would write.  Each
        run of stale positions goes through :meth:`_batch_walk`; a fill
        there may mark a later position stale, which the next run search
        sees."""
        tags, idx, stale, offsets = ws.tags, ws.idx, ws.stale, ws.offsets
        view = self._stamps_view
        slot = self._slot
        n = len(tags)
        start = self._stamp
        pos = 0
        while pos < n:
            later = [k for k in stale if k >= pos]
            end = min(later) if later else n
            if end > pos:
                view[idx[pos:end]] = offsets[pos:end] + start
                self._hits += end - pos
                if hits_out is not None:
                    hits_out[pos:end] = True
                if evicted_out is not None:
                    evicted_out.extend([None] * (end - pos))
            if end == n:
                break
            stop = end + 1
            while stop in stale:
                stop += 1
            stale.difference_update(range(end, stop))
            self._stamp = start + end
            self._batch_walk(
                tags[end:stop], cos,
                None if hits_out is None else hits_out[end:stop],
                evicted_out,
            )
            for k in range(end, stop):
                if k not in stale:
                    idx[k] = slot[tags[k]]
            pos = stop
        self._stamp = start + n

    def _batch_walk(self, lines: list[int], cos: int, hits_out, evicted_out):
        """The shared sequential core: one fused pass per line tag — a
        resident-line lookup with every hot attribute hoisted out of the
        loop; only misses reach ``_locate`` and the victim scan."""
        slot = self._slot.get
        stamps = self._stamps
        ways = self._ways
        plru = self._plru if self._plru_on else None
        stamp = self._stamp
        fill = self._fill
        n_hits = 0
        for k, tag in enumerate(lines):
            stamp += 1
            idx = slot(tag)
            if idx is None:
                self._stamp = stamp  # _fill stamps the installed line
                evicted = fill(tag, cos)
                if evicted_out is not None:
                    evicted_out.append(evicted)
                continue
            stamps[idx] = stamp
            if plru is not None:
                way = idx % ways
                plru[idx - way].touch(way)
            n_hits += 1
            if hits_out is not None:
                hits_out[k] = True
            if evicted_out is not None:
                evicted_out.append(None)
        self._stamp = stamp
        self._hits += n_hits
        self._misses += len(lines) - n_hits

    def access_many(self, paddrs, cos: int = 0) -> BatchAccessResult:
        """:meth:`access` over a whole address vector; same state
        mutations, RNG consumption, and latencies as the scalar loop."""
        import numpy as np

        n = len(paddrs)
        hits = np.zeros(n, dtype=bool)
        evicted: list[Optional[int]] = []
        self._walk(paddrs, cos, hits, evicted)
        zs = self._take_z(n)
        lats = np.where(hits, self._hit_lat, self._miss_lat) + zs * self._sigma
        np.maximum(lats, 1.0, out=lats)
        return BatchAccessResult(hits, lats, evicted)

    def access_many_timed(self, paddrs, cos: int = 0):
        """:meth:`access_timed` over a whole address vector — the probe
        loop entry point.  Returns the float64 latency array."""
        import numpy as np

        n = len(paddrs)
        hits = np.zeros(n, dtype=bool)
        # access_timed draws z before its hit scan; drawing the whole
        # stream before the walk consumes the identical subsequence.
        zs = self._take_z(n)
        self._walk(paddrs, cos, hits, None)
        lats = np.where(hits, self._hit_lat, self._miss_lat) + zs * self._sigma
        np.maximum(lats, 1.0, out=lats)
        return lats

    def access_many_missed(self, paddrs, cos: int, threshold: float) -> list[int]:
        """The positions whose :meth:`access_many_timed` latency would
        exceed ``threshold``, in order; same state mutations and RNG
        consumption.  When the threshold sits more than ``_Z_BOUND``
        sigmas from both latency modes, and above the 1.0 clamp, no
        variate can flip a verdict: the misses are the answer, and the
        probe's variates are skipped, not read."""
        import numpy as np

        bound = _Z_BOUND * abs(self._sigma)
        if not (
            threshold > 1.0
            and threshold - self._hit_lat > bound
            and self._miss_lat - threshold > bound
        ):
            lats = self.access_many_timed(paddrs, cos)
            return np.flatnonzero(lats > threshold).tolist()
        n = len(paddrs)
        hits = np.zeros(n, dtype=bool)
        self._take_z(n, read=False)
        self._walk(paddrs, cos, hits, None)
        return np.flatnonzero(~hits).tolist()

    def access_many_silent(self, paddrs, cos: int = 0) -> None:
        """:meth:`access_silent` over a whole address vector: line-state
        updates only, no latency draws."""
        self._walk(paddrs, cos, None, None)

    def flush(self, paddr: int) -> None:
        """clflush: remove the line from the cache entirely."""
        tag = paddr >> LINE_BITS
        idx = self._slot.pop(tag, None)
        if idx is not None:
            self._tags[idx] = -1
            self._leave(tag)
        self._flushes += 1

    def contains(self, paddr: int) -> bool:
        return (paddr >> LINE_BITS) in self._slot

    def occupancy(self, sl: int, st: int) -> int:
        base = (sl * self._nsets + st) * self._ways
        segment = self._tags[base : base + self._ways]
        return self._ways - segment.count(-1)

    def clear(self) -> None:
        for tag in self._slot:
            self._leave(tag)
        self._tags = array("q", [-1]) * len(self._tags)
        self._slot.clear()
