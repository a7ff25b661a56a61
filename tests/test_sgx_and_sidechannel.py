"""Tests for the enclave harness and the attack primitives."""

import pytest

from repro.cache import Cache, CacheConfig, CatController, OsPollution
from repro.memsys import AddressSpace, PageFault, Permissions
from repro.sgx import Enclave, EnclaveKilled
from repro.sidechannel import (
    AttackerMemory,
    FlushReload,
    FrameSelector,
    PrimeProbe,
    SingleStepper,
)


def make_enclave(**kwargs):
    space = AddressSpace()
    cache = Cache(CacheConfig(noise_sigma=0.0))
    return space, cache, Enclave(space, cache, **kwargs)


class TestEnclave:
    def test_array_access_touches_cache(self):
        _, cache, enclave = make_enclave()
        arr = enclave.array("a", 16, elem_size=4)
        arr.set(3, 7)
        assert arr.get(3) == 7
        assert cache.stats["hits"] + cache.stats["misses"] == 2

    def test_unhandled_fault_kills(self):
        space, _, enclave = make_enclave()
        arr = enclave.array("a", 16)
        space.mprotect(arr.base, 16, Permissions.NONE)
        with pytest.raises(EnclaveKilled) as exc:
            arr.get(0)
        assert str(exc.value) == f"read fault at page 0x{arr.base & ~0xFFF:x}"

    def test_fault_handler_resolves_and_access_completes(self):
        space, _, enclave = make_enclave()
        arr = enclave.array("a", 16)
        space.mprotect(arr.base, 16, Permissions.READ)
        seen = []

        def handler(fault: PageFault) -> None:
            seen.append((fault.page_vaddr, fault.kind))
            space.mprotect(arr.base, 16, Permissions.RW)

        enclave.fault_handler = handler
        arr.set(2, 9)
        assert arr.get(2) == 9
        assert seen == [(arr.base & ~0xFFF, "write")]

    def test_nonprogressing_handler_detected(self):
        space, _, enclave = make_enclave()
        arr = enclave.array("a", 16)
        space.mprotect(arr.base, 16, Permissions.NONE)
        enclave.fault_handler = lambda fault: None
        with pytest.raises(EnclaveKilled):
            arr.get(0)

    def test_env_hook_called_per_access(self):
        hits = []
        space = AddressSpace()
        cache = Cache(CacheConfig(noise_sigma=0.0))
        enclave = Enclave(
            space, cache, env_hook=lambda paddr, kind: hits.append(kind)
        )
        arr = enclave.array("a", 8)
        arr.set(0, 1)
        arr.get(0)
        arr.add(0, 1)
        assert hits == ["write", "read", "update"]

    def test_arrays_page_aligned_with_misalign(self):
        _, _, enclave = make_enclave()
        a = enclave.array("a", 100, elem_size=4, misalign=48)
        assert a.base % 4096 == 48


class TestPrimeProbe:
    def test_attacker_memory_covers_all_locations(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        mem = AttackerMemory(cache, n_lines=1 << 17)
        assert mem.coverage() == cache.config.n_slices * cache.config.sets_per_slice

    def test_insufficient_lines_rejected(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        mem = AttackerMemory(cache, n_lines=64)
        loc = cache.location(0x4_0000_0000)
        with pytest.raises(ValueError):
            mem.lines_for(loc, 100)

    def test_detects_single_victim_access_with_cat(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        CatController(cache).partition_for_attack()
        mem = AttackerMemory(cache)
        pp = PrimeProbe(cache, mem, cos=0, ways=1)
        victim_addr = 0x1234000
        locations = [cache.location(victim_addr + k * 64) for k in range(64)]
        pp.prime(locations)
        cache.access(victim_addr + 17 * 64, cos=0)  # the secret access
        active = pp.probe(locations)
        assert active == {locations[17]}

    def test_no_access_no_detection(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        CatController(cache).partition_for_attack()
        pp = PrimeProbe(cache, AttackerMemory(cache), ways=1)
        locations = [cache.location(0x4000 + k * 64) for k in range(32)]
        pp.prime(locations)
        assert pp.probe(locations) == set()

    def test_full_associativity_priming_detects_without_cat(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        mem = AttackerMemory(cache)
        pp = PrimeProbe(cache, mem, ways=cache.config.ways)
        victim_addr = 0x5678000
        loc = cache.location(victim_addr)
        pp.prime([loc])
        cache.access(victim_addr, cos=0)
        assert pp.probe([loc]) == {loc}


class TestFlushReload:
    def test_reload_hit_after_victim_touch(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        fr = FlushReload(cache)
        line = 0x7000
        cache.access(line)
        fr.flush(line)
        cache.access(line)  # the victim executes the monitored code
        assert fr.reload(line) is True

    def test_reload_miss_when_untouched(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        fr = FlushReload(cache)
        line = 0x7000
        fr.flush(line)
        assert fr.reload(line) is False

    def test_sample_reflushes(self):
        cache = Cache(CacheConfig(noise_sigma=0.0))
        fr = FlushReload(cache)
        lines = [0x8000, 0x9000]
        cache.access(lines[0])
        hits = fr.sample(lines)
        assert hits == [True, False]
        # After sampling, both lines are flushed again.
        assert fr.sample(lines) == [False, False]


class TestSingleStepper:
    def _setup(self):
        space, cache, enclave = make_enclave()
        quadrant = enclave.array("quadrant", 32, elem_size=2)
        block = enclave.array("block", 32, elem_size=1)
        block.load(list(range(32)))
        ftab = enclave.array("ftab", 65537, elem_size=4, misalign=48)
        return space, enclave, quadrant, block, ftab

    def test_stepping_order_and_callbacks(self):
        space, enclave, quadrant, block, ftab = self._setup()
        events = []
        stepper = SingleStepper(
            space,
            quadrant,
            block,
            ftab,
            before_ftab_access=lambda page: events.append("ftab"),
            probe_point=lambda: events.append("probe"),
        )
        enclave.fault_handler = stepper.handle_fault
        stepper.arm()
        from repro.compression.bzip2.blocksort import histogram

        histogram(enclave, block, 32, ftab=ftab, quadrant=quadrant)
        stepper.disarm()
        # Per iteration: one ftab callback; a probe before each
        # subsequent iteration's ftab prime.
        assert events.count("ftab") == 32
        assert events.count("probe") == 32  # no probe before first iter,
        # and no probe after the last one (caller's job) -- but one probe
        # per quadrant fault = 32 (first has no page recorded).
        assert stepper.steps == 32

    def test_histogram_result_correct_under_stepping(self):
        space, enclave, quadrant, block, ftab = self._setup()
        stepper = SingleStepper(space, quadrant, block, ftab)
        enclave.fault_handler = stepper.handle_fault
        stepper.arm()
        from repro.compression.bzip2.blocksort import histogram

        histogram(enclave, block, 32, ftab=ftab, quadrant=quadrant)
        stepper.disarm()
        counts = ftab.snapshot()
        assert sum(counts) == 32

    def test_unexpected_fault_rejected(self):
        space, enclave, quadrant, block, ftab = self._setup()
        stepper = SingleStepper(space, quadrant, block, ftab)
        other = enclave.array("other", 8)
        space.mprotect(other.base, 8, Permissions.NONE)
        with pytest.raises(RuntimeError, match="unexpected fault"):
            stepper.handle_fault(PageFault(other.base, "read"))


class TestFrameSelector:
    def _make(self, enabled=True, pollution_lines=48):
        space = AddressSpace()
        cache = Cache(CacheConfig(noise_sigma=0.0))
        CatController(cache).partition_for_attack()
        pollution = OsPollution(cache, n_lines=pollution_lines, cos=0)
        pp = PrimeProbe(cache, AttackerMemory(cache), cos=0, ways=1)
        space.map_range(0xA0000, 4096)
        selector = FrameSelector(
            space, cache, pp, transition=pollution.fault_entry, enabled=enabled
        )
        return space, cache, pollution, selector

    def test_vetted_frame_is_quiet(self):
        space, cache, pollution, selector = self._make()
        vetted = selector.vet(0xA0000)
        assert vetted.noisy == set()
        assert set(vetted.locations).isdisjoint(pollution.polluted_locations())

    def test_vet_is_cached(self):
        _, _, _, selector = self._make()
        first = selector.vet(0xA0000)
        assert selector.vet(0xA0000) is first

    def test_disabled_selector_accepts_frame_as_is(self):
        space, _, _, selector = self._make(enabled=False)
        before = space.frame_of(0xA0000)
        vetted = selector.vet(0xA0000)
        assert vetted.frame == before
        assert vetted.remaps == 0

    def test_locations_follow_remap(self):
        space, cache, _, selector = self._make()
        locs_before = selector.page_locations(0xA0000)
        space.remap(0xA0000)
        locs_after = selector.page_locations(0xA0000)
        assert locs_before != locs_after
