"""Batched cache API ≡ scalar loop, access for access.

``access_many`` / ``access_many_timed`` / ``access_many_silent`` promise
the *identical* state mutations, RNG consumption, and latencies a scalar
loop over the same addresses would produce.  The Hypothesis program here
interleaves scalar and batch calls on one cache while a reference cache
replays everything scalar-wise, then demands bit-equal latencies,
identical line/stamp/PLRU state, a resident-line index that matches the
tag array (``flush`` and ``clear`` ops included), and an identical
noise-stream continuation afterwards.  A second program replays one
fixed working set (``Cache.working_set``) through the same batch calls
and demands the same of it.  Both programs include ``missed`` probes
(``Cache.access_many_missed``), whose twin reads the timed latencies;
thresholds sit just inside and just outside the bound under which the
probe skips its variates, and after every op both caches must hold the
same noise cursor and RNG state.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BackgroundNoise, Cache, CacheConfig, OsPollution
from repro.cache.model import _Z_BATCH, _Z_BOUND, LINE_SIZE


def _addr(i: int) -> int:
    return 0x1_0000_0000 + i * LINE_SIZE


def configs() -> st.SearchStrategy[CacheConfig]:
    return st.builds(
        CacheConfig,
        n_slices=st.sampled_from([1, 2, 4]),
        sets_per_slice=st.sampled_from([4, 8]),
        ways=st.sampled_from([1, 2, 4]),
        # 0.5 puts hit latencies under the 1.0 clamp.
        hit_latency=st.sampled_from([40.0, 0.5]),
        noise_sigma=st.sampled_from([0.0, 6.0, 30.0]),
        seed=st.integers(min_value=0, max_value=1 << 16),
        replacement=st.sampled_from(["lru", "plru"]),
    )


def _thresholds(config: CacheConfig) -> list[float]:
    """Probe thresholds for ``config``: just inside and just outside
    the skip bound on either side, the midpoint, a latency mode and the
    1.0 clamp."""
    hit, miss = config.hit_latency, config.miss_latency
    bound = _Z_BOUND * abs(config.noise_sigma)
    eps = 1e-6
    return [
        hit + bound + eps, hit + bound - eps,
        miss - bound - eps, miss - bound + eps,
        (hit + miss) / 2, hit, 1.0,
    ]


# Every op carries an index into _thresholds; only "missed" reads it.
_THRESHOLD = st.integers(min_value=0, max_value=6)


def programs() -> st.SearchStrategy[list]:
    # A small line pool keeps set contention (hits, evictions) frequent.
    addrs = st.lists(
        st.integers(min_value=0, max_value=40), min_size=0, max_size=12
    )
    op = st.tuples(
        st.sampled_from(["access", "timed", "silent", "many", "many_timed",
                         "many_silent", "missed", "flush", "clear"]),
        addrs,
        st.sampled_from([0, 1]),
        _THRESHOLD,
    )
    return st.lists(op, min_size=1, max_size=12)


def _run_scalar(cache: Cache, op: str, paddrs: list, cos: int,
                thr: float = 0.0) -> list:
    if op == "missed":
        lats = cache.access_many_timed(paddrs, cos=cos)
        return np.flatnonzero(lats > thr).tolist()
    if op == "flush":
        for p in paddrs:
            cache.flush(p)
        return []
    if op == "clear":
        cache.clear()
        return []
    if op in ("access", "many"):
        return [
            (r.hit, r.latency, r.evicted)
            for r in (cache.access(p, cos=cos) for p in paddrs)
        ]
    if op in ("timed", "many_timed"):
        return [cache.access_timed(p, cos=cos) for p in paddrs]
    for p in paddrs:
        cache.access_silent(p, cos=cos)
    return []


def _run_batch(cache: Cache, op: str, paddrs: list, cos: int,
               thr: float = 0.0) -> list:
    if op == "missed":
        return cache.access_many_missed(paddrs, cos, thr)
    if op == "many":
        r = cache.access_many(paddrs, cos=cos)
        assert r.n_hits == int(np.count_nonzero(r.hits))
        return [
            (bool(h), float(lat), ev)
            for h, lat, ev in zip(r.hits, r.latencies, r.evicted)
        ]
    if op == "many_timed":
        return [float(lat) for lat in cache.access_many_timed(paddrs, cos=cos)]
    if op == "many_silent":
        cache.access_many_silent(paddrs, cos=cos)
        return []
    return _run_scalar(cache, op, paddrs, cos, thr)


def _assert_same_noise(batch: Cache, ref: Cache) -> None:
    assert batch._zi == ref._zi
    assert batch._rng.getstate() == ref._rng.getstate()


def _assert_same_state(batch: Cache, ref: Cache) -> None:
    for cache in (batch, ref):
        # The resident-line index is exactly the non-empty tag slots.
        assert cache._slot == {
            tag: i for i, tag in enumerate(cache._tags) if tag != -1
        }
    assert batch._tags == ref._tags
    assert batch._stamps == ref._stamps
    assert batch._stamp == ref._stamp
    assert batch.stats == ref.stats
    assert set(batch._plru) == set(ref._plru)
    for base, tree in batch._plru.items():
        assert tree.bits == ref._plru[base].bits


class TestBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(config=configs(), program=programs())
    def test_interleaved_program_matches_scalar_loop(self, config, program):
        batch = Cache(config)
        ref = Cache(config)
        thresholds = _thresholds(config)
        for op, lines, cos, t in program:
            paddrs = [_addr(i) for i in lines]
            got = _run_batch(batch, op, paddrs, cos, thresholds[t])
            want = _run_scalar(ref, op, paddrs, cos, thresholds[t])
            assert got == want  # latencies bit-equal, hits/evictions too
            _assert_same_noise(batch, ref)
        _assert_same_state(batch, ref)
        # The noise stream must have advanced identically: the next
        # scalar draws on both caches are from the same subsequence.
        tail = [batch.access_timed(_addr(i)) for i in range(8)]
        assert tail == [ref.access_timed(_addr(i)) for i in range(8)]

    @settings(max_examples=20, deadline=None)
    @given(
        config=configs(),
        lines=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
    )
    def test_access_many_on_one_call(self, config, lines):
        paddrs = [_addr(i) for i in lines]
        batch, ref = Cache(config), Cache(config)
        result = batch.access_many(paddrs, cos=1)
        expected = [ref.access(p, cos=1) for p in paddrs]
        assert result.hits.tolist() == [r.hit for r in expected]
        assert result.latencies.tolist() == [r.latency for r in expected]
        assert result.evicted == [r.evicted for r in expected]
        _assert_same_state(batch, ref)


def working_set_programs() -> st.SearchStrategy[list]:
    # About half the ops walk or flush the working set (a flush names
    # member positions), so that walks with stale positions come up
    # often.
    addrs = st.lists(
        st.integers(min_value=0, max_value=40), min_size=0, max_size=12
    )
    cos = st.sampled_from([0, 1])
    list_op = st.tuples(
        st.sampled_from(["access", "timed", "silent", "many", "many_timed",
                         "many_silent", "missed", "flush", "clear"]),
        addrs,
        cos,
        _THRESHOLD,
    )
    set_op = st.tuples(
        st.sampled_from(["set_many", "set_many_timed", "set_many_silent",
                         "set_missed", "set_flush"]),
        st.lists(st.integers(min_value=0, max_value=11), max_size=3),
        cos,
        _THRESHOLD,
    )
    return st.lists(st.one_of(set_op, list_op), min_size=1, max_size=16)


class TestWorkingSetEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        config=configs(),
        members=st.one_of(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=1, max_size=12, unique=True,
            ),
            st.lists(
                st.integers(min_value=0, max_value=40), min_size=1, max_size=12
            ),
        ),
        program=working_set_programs(),
    )
    def test_working_set_program_matches_scalar_loop(
        self, config, members, program
    ):
        """Repeated tags and PLRU configs walk the plain loop; the rest
        take the stamp-by-run path, whose stale marks must follow every
        eviction, flush and clear in between."""
        batch = Cache(config)
        ref = Cache(config)
        paddrs = [_addr(i) for i in members]
        working_set = batch.working_set(paddrs)
        thresholds = _thresholds(config)
        for op, lines, cos, t in program:
            thr = thresholds[t]
            if op == "set_flush":
                doomed = [paddrs[k % len(paddrs)] for k in lines]
                _run_scalar(batch, "flush", doomed, cos)
                _run_scalar(ref, "flush", doomed, cos)
                continue
            if op.startswith("set_"):
                op = op[len("set_"):]
                got = _run_batch(batch, op, working_set, cos, thr)
                want = _run_scalar(ref, op, paddrs, cos, thr)
            else:
                addrs = [_addr(i) for i in lines]
                got = _run_batch(batch, op, addrs, cos, thr)
                want = _run_scalar(ref, op, addrs, cos, thr)
            assert got == want
            _assert_same_noise(batch, ref)
        _assert_same_state(batch, ref)
        if working_set.idx is not None:
            for k, tag in enumerate(working_set.tags):
                if k not in working_set.stale:
                    assert batch._tags[working_set.idx[k]] == tag
        tail = [batch.access_timed(_addr(i)) for i in range(8)]
        assert tail == [ref.access_timed(_addr(i)) for i in range(8)]

    def test_working_set_of_another_cache_is_rejected(self):
        config = CacheConfig(n_slices=1, sets_per_slice=4, ways=2)
        working_set = Cache(config).working_set([_addr(0)])
        with pytest.raises(ValueError):
            Cache(config).access_many_silent(working_set)


class TestLazyNoise:
    """The noise batches are drawn as raw MT words and transformed on
    first read; a probe whose threshold the noise cannot cross skips
    its variates without reading them."""

    def test_variates_equal_random_gauss(self):
        """Every variate equals ``Random.gauss``'s, whose Box-Muller
        transform takes its logarithm from libm.  32 batches hold 8,192
        logarithms; numpy's ``log`` differs from libm's in the last bit
        on about 0.35 % of such inputs on x86-64 (numpy 2.4), so a
        transform through ``np.log`` fails here."""
        for seed in (2024, 7):
            cache = Cache(CacheConfig(seed=seed))
            got = cache._take_z(32 * _Z_BATCH).tolist()
            rng = random.Random(seed)
            assert got == [rng.gauss(0.0, 1.0) for _ in range(len(got))]
            assert cache._rng.getstate() == rng.getstate()

    def test_skip_to_the_batch_end_draws_nothing(self):
        """Skipping exactly to a batch end leaves the next batch undrawn;
        skipping 1,024 more then draws two batches, as reads would."""
        config = CacheConfig(seed=11)
        cache, twin = Cache(config), Cache(config)
        thr = (config.hit_latency + config.miss_latency) / 2
        head = [_addr(i) for i in range(100)]
        assert cache.access_many_timed(head).tolist() == (
            twin.access_many_timed(head).tolist()
        )
        state = cache._rng.getstate()
        rest = [_addr(i) for i in range(_Z_BATCH - cache._zi)]
        got = cache.access_many_missed(rest, 0, thr)
        assert cache._zi == _Z_BATCH
        assert cache._rng.getstate() == state  # no batch drawn early
        want = _run_scalar(twin, "missed", rest, 0, thr)
        assert got == want
        _assert_same_noise(cache, twin)
        lines = [_addr(i) for i in range(1024)]
        got = cache.access_many_missed(lines, 0, thr)
        want = _run_scalar(twin, "missed", lines, 0, thr)
        assert got == want
        assert cache._zi == _Z_BATCH
        _assert_same_noise(cache, twin)
        _assert_same_state(cache, twin)
        tail = [cache.access_timed(_addr(i)) for i in range(8)]
        assert tail == [twin.access_timed(_addr(i)) for i in range(8)]

    def test_noise_that_can_flip_a_verdict_is_read(self):
        """At sigma = 30 the midpoint threshold is 2.7 sigma from each
        latency mode: some hits read as misses, and the probe must
        report them as the timed latencies do."""
        config = CacheConfig(noise_sigma=30.0, seed=3)
        cache, twin = Cache(config), Cache(config)
        lines = [_addr(i) for i in range(64)]
        cache.access_many_silent(lines)
        twin.access_many_silent(lines)
        flips = 0
        for _ in range(20):
            got = cache.access_many_missed(lines, 0, 120.0)
            assert got == _run_scalar(twin, "missed", lines, 0, 120.0)
            flips += len(got)
        assert flips > 0  # every line hit: each position is noise
        _assert_same_noise(cache, twin)

    def test_a_threshold_under_the_clamp_reads_every_hit_as_a_miss(self):
        """Latencies are clamped at 1.0, so a noiseless hit of latency
        0.5 reads above a threshold of 0.9 although the threshold sits
        above the hit mode."""
        config = CacheConfig(hit_latency=0.5, noise_sigma=0.0)
        cache, twin = Cache(config), Cache(config)
        lines = [_addr(i) for i in range(8)]
        cache.access_many_silent(lines)
        twin.access_many_silent(lines)
        got = cache.access_many_missed(lines, 0, 0.9)
        assert got == _run_scalar(twin, "missed", lines, 0, 0.9)
        assert got == list(range(8))


class TestNoiseAdoption:
    def test_background_noise_step_matches_scalar_replay(self):
        config = CacheConfig(n_slices=2, sets_per_slice=8, ways=2, seed=5)
        cache, ref = Cache(config), Cache(config)
        noise = BackgroundNoise(cache, rate=50, seed=99)
        for _ in range(4):
            noise.step()
        # Scalar replay of the identical RNG stream.
        rng = random.Random(99)
        for _ in range(4):
            addrs = [
                0x2_0000_0000 + rng.randrange(1 << 16) * LINE_SIZE
                for _ in range(50)
            ]
            for a in addrs:
                ref.access_silent(a, cos=1)
        _assert_same_state(cache, ref)

    @pytest.mark.parametrize(
        "region_lines", [1, 3, 1000, 1 << 16, (1 << 16) + 1, 1 << 20]
    )
    @pytest.mark.parametrize("rate", [1, 2, 64, 300])
    def test_background_noise_touches_the_randrange_stream(
        self, region_lines, rate
    ):
        """The pre-drawn addresses are the scalar ``randrange`` stream,
        in order, across several chunk boundaries."""

        class Touches(Cache):
            def access_silent(self, paddr, cos=0):
                touched.append((paddr, cos))

        touched: list = []
        cache = Touches(CacheConfig(n_slices=1, sets_per_slice=4, ways=1))
        base = 0x5_0000_0000
        noise = BackgroundNoise(
            cache, rate=rate, cos=1, region_base=base,
            region_lines=region_lines, seed=31,
        )
        steps = 6000 // rate + 3
        for _ in range(steps):
            noise.step()
        rng = random.Random(31)
        assert touched == [
            (base + rng.randrange(region_lines) * LINE_SIZE, 1)
            for _ in range(steps * rate)
        ]

    @pytest.mark.parametrize("region_lines", [0, 1 << 32, (1 << 32) + 1])
    def test_background_noise_region_outside_one_word_is_rejected(
        self, region_lines
    ):
        with pytest.raises(ValueError):
            BackgroundNoise(Cache(), rate=1, region_lines=region_lines)

    def test_os_pollution_fault_matches_scalar_replay(self):
        config = CacheConfig(n_slices=1, sets_per_slice=8, ways=2, seed=5)
        cache, ref = Cache(config), Cache(config)
        pollution = OsPollution(cache, n_lines=24, seed=3)
        pollution.fault_entry()
        for a in OsPollution(ref, n_lines=24, seed=3)._addrs:
            ref.access_silent(a, cos=0)
        _assert_same_state(cache, ref)
