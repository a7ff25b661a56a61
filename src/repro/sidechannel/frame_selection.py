"""The frame-selection technique of Section V-C2.

"The attacker repeats S2 until ... a frame in an idle cache set is
found, i.e. performing all the state transition logic while not
performing actual access to ftab.  If the attacker detects cache
activity on the monitored cache sets, the state transition caused this
activity ... Therefore, the attacker remaps the frame until they find
one that does not collide with noise from the system (or until a
timeout)" — after which any remaining noisy lines are logged and
"treat[ed] as false positives later on".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cache.model import LINE_SIZE, Cache
from repro.memsys.paging import PAGE_SIZE, AddressSpace
from repro.sidechannel.prime_probe import Location, PrimeProbe

LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE


@dataclass
class VettedPage:
    """Outcome of vetting one victim page.

    ``offsets`` maps each location to the line offsets within the page
    that land there, ascending; it is derived from ``locations``.
    """

    page_vaddr: int
    frame: int
    locations: list[Location]  # per line offset within the page
    noisy: set[Location] = field(default_factory=set)  # known false positives
    remaps: int = 0
    offsets: dict[Location, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.offsets = {}
        for k, loc in enumerate(self.locations):
            self.offsets.setdefault(loc, []).append(k)


class FrameSelector:
    """Vets (and if needed remaps) the physical frames behind victim
    pages so the monitored cache sets are idle across state transitions.
    """

    def __init__(
        self,
        space: AddressSpace,
        cache: Cache,
        prime_probe: PrimeProbe,
        transition: Callable[[], None],
        max_remaps: int = 32,
        enabled: bool = True,
    ) -> None:
        self.space = space
        self.cache = cache
        self.pp = prime_probe
        self.transition = transition  # replays the cost of a fault delivery
        self.max_remaps = max_remaps
        self.enabled = enabled
        self._vetted: dict[int, VettedPage] = {}

    def page_locations(self, page_vaddr: int) -> list[Location]:
        """(slice, set) of each of the page's 64 lines, in offset order."""
        frame = self.space.frame_of(page_vaddr)
        base = frame * PAGE_SIZE
        return [
            self.cache.location(base + k * LINE_SIZE)
            for k in range(LINES_PER_PAGE)
        ]

    def vet(self, page_vaddr: int) -> VettedPage:
        """Ensure the page's monitored sets are quiet; remap if not.

        With the technique disabled, the current frame is accepted as-is
        and *no* noisy-line bookkeeping happens — the ablation baseline.
        """
        cached = self._vetted.get(page_vaddr)
        if cached is not None:
            return cached

        if not self.enabled:
            vetted = VettedPage(
                page_vaddr,
                self.space.frame_of(page_vaddr),
                self.page_locations(page_vaddr),
            )
            self._vetted[page_vaddr] = vetted
            return vetted

        remaps = 0
        noisy: set[Location] = set()
        while True:
            locations = self.page_locations(page_vaddr)
            # Dry run: prime, take the transition cost, probe.
            self.pp.prime(locations)
            self.transition()
            noisy = self.pp.probe(locations)
            if not noisy:
                break
            if remaps >= self.max_remaps or self.space.free_frames_left() == 0:
                # Timeout: accept the frame, remember the bad lines.
                break
            self.space.remap(page_vaddr)
            remaps += 1

        vetted = VettedPage(
            page_vaddr,
            self.space.frame_of(page_vaddr),
            self.page_locations(page_vaddr),
            noisy=noisy,
            remaps=remaps,
        )
        self._vetted[page_vaddr] = vetted
        return vetted
