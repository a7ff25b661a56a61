"""Prime+Probe over a sliced, way-partitioned LLC.

The attacker owns a pool of physical memory and precomputes, for every
(slice, set) location, which of its own lines land there — the paper's
"we precompute the slicing function for these addresses instead of
reverse engineering the full function" (Section V-C1).  Priming then
fills the location with attacker lines; probing times them again and
reports locations where a line went missing.

With the CAT attack partition reduced to a single way, one line per
location suffices and the victim's fill *must* evict it — the property
that makes the channel near-deterministic.  Without CAT, ``ways`` lines
per location are primed and any unrelated fill shows up as a false
positive.
"""

from __future__ import annotations

from repro.cache.model import LINE_SIZE, Cache, WorkingSet

Location = tuple[int, int]  # (slice, set)


class AttackerMemory:
    """The attacker's own lines, indexed by cache location."""

    def __init__(
        self,
        cache: Cache,
        base: int = 0x4_0000_0000,
        n_lines: int = 1 << 17,
    ) -> None:
        self._by_location: dict[Location, list[int]] = {}
        by_location = self._by_location
        paddr = base
        for loc in cache.locations_for_range(base, n_lines):
            lines = by_location.get(loc)
            if lines is None:
                by_location[loc] = [paddr]
            else:
                lines.append(paddr)
            paddr += LINE_SIZE
        # lines_for is called once per location per prime AND per probe;
        # the (location, count) -> prefix answer never changes.
        self._prefix_cache: dict[tuple[Location, int], list[int]] = {}

    def lines_for(self, location: Location, count: int) -> list[int]:
        """``count`` attacker line addresses mapping to ``location``."""
        key = (location, count)
        cached = self._prefix_cache.get(key)
        if cached is not None:
            return cached
        lines = self._by_location.get(location, [])
        if len(lines) < count:
            raise ValueError(
                f"attacker pool has only {len(lines)} lines for {location}"
            )
        result = self._prefix_cache[key] = lines[:count]
        return result

    def coverage(self) -> int:
        return len(self._by_location)

    def locations_with(self, count: int) -> list[Location]:
        """Locations where the pool holds at least ``count`` lines, in
        pool order — the monitorable universe for ``ways=count``."""
        return [
            loc
            for loc, lines in self._by_location.items()
            if len(lines) >= count
        ]


class PrimeProbe:
    """The measurement loop of the Section V attack."""

    def __init__(
        self,
        cache: Cache,
        memory: AttackerMemory,
        cos: int = 0,
        ways: int = 1,
        threshold: float | None = None,
    ) -> None:
        self.cache = cache
        self.memory = memory
        self.cos = cos
        self.ways = ways
        cfg = cache.config
        self.threshold = (
            threshold
            if threshold is not None
            else (cfg.hit_latency + cfg.miss_latency) / 2
        )
        # The monitored location set is stable across many consecutive
        # sweeps, so the flattened (location, line) visit order is
        # cached per distinct set — as a cache working set, plus the
        # parallel location column.
        self._sweep_cache: dict[
            tuple[Location, ...], tuple[WorkingSet, list[Location]]
        ] = {}

    def _sweep(
        self, locations: list[Location]
    ) -> tuple[WorkingSet, list[Location]]:
        key = tuple(locations)
        cached = self._sweep_cache.get(key)
        if cached is None:
            lines_for = self.memory.lines_for
            ways = self.ways
            pairs = [
                (loc, paddr)
                for loc in locations
                for paddr in lines_for(loc, ways)
            ]
            lines = self.cache.working_set([p for _, p in pairs])
            locs = [loc for loc, _ in pairs]
            cached = self._sweep_cache[key] = (lines, locs)
        return cached

    def prime(self, locations: list[Location]) -> None:
        """Fill each location's attack-partition ways with own lines."""
        lines, _ = self._sweep(locations)
        self.cache.access_many_silent(lines, self.cos)

    def probe(self, locations: list[Location]) -> set[Location]:
        """Re-time the primed lines; return locations showing a miss.

        A miss means *someone* filled the location since the prime —
        the victim's secret-dependent access, or noise.  The attacker
        reads only which side of the threshold each line falls on, so
        the sweep goes through :meth:`Cache.access_many_missed`: under
        the default timing no latency variate can flip a verdict, and
        none is computed.
        """
        lines, locs = self._sweep(locations)
        missed = self.cache.access_many_missed(lines, self.cos, self.threshold)
        return {locs[i] for i in missed}
