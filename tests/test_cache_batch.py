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
and demands the same of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BackgroundNoise, Cache, CacheConfig, OsPollution
from repro.cache.model import LINE_SIZE


def _addr(i: int) -> int:
    return 0x1_0000_0000 + i * LINE_SIZE


def configs() -> st.SearchStrategy[CacheConfig]:
    return st.builds(
        CacheConfig,
        n_slices=st.sampled_from([1, 2, 4]),
        sets_per_slice=st.sampled_from([4, 8]),
        ways=st.sampled_from([1, 2, 4]),
        noise_sigma=st.sampled_from([0.0, 6.0]),
        seed=st.integers(min_value=0, max_value=1 << 16),
        replacement=st.sampled_from(["lru", "plru"]),
    )


def programs() -> st.SearchStrategy[list]:
    # A small line pool keeps set contention (hits, evictions) frequent.
    addrs = st.lists(
        st.integers(min_value=0, max_value=40), min_size=0, max_size=12
    )
    op = st.tuples(
        st.sampled_from(["access", "timed", "silent", "many", "many_timed",
                         "many_silent", "flush", "clear"]),
        addrs,
        st.sampled_from([0, 1]),
    )
    return st.lists(op, min_size=1, max_size=12)


def _run_scalar(cache: Cache, op: str, paddrs: list, cos: int) -> list:
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


def _run_batch(cache: Cache, op: str, paddrs: list, cos: int) -> list:
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
    return _run_scalar(cache, op, paddrs, cos)


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
        for op, lines, cos in program:
            paddrs = [_addr(i) for i in lines]
            got = _run_batch(batch, op, paddrs, cos)
            want = _run_scalar(ref, op, paddrs, cos)
            assert got == want  # latencies bit-equal, hits/evictions too
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
                         "many_silent", "flush", "clear"]),
        addrs,
        cos,
    )
    set_op = st.tuples(
        st.sampled_from(["set_many", "set_many_timed", "set_many_silent",
                         "set_flush"]),
        st.lists(st.integers(min_value=0, max_value=11), max_size=3),
        cos,
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
        for op, lines, cos in program:
            if op == "set_flush":
                doomed = [paddrs[k % len(paddrs)] for k in lines]
                _run_scalar(batch, "flush", doomed, cos)
                _run_scalar(ref, "flush", doomed, cos)
                continue
            if op.startswith("set_"):
                op = op[len("set_"):]
                got = _run_batch(batch, op, working_set, cos)
                want = _run_scalar(ref, op, paddrs, cos)
            else:
                got = _run_batch(batch, op, [_addr(i) for i in lines], cos)
                want = _run_scalar(ref, op, [_addr(i) for i in lines], cos)
            assert got == want
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


class TestNoiseAdoption:
    def test_background_noise_step_matches_scalar_replay(self):
        import random

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

    def test_os_pollution_fault_matches_scalar_replay(self):
        config = CacheConfig(n_slices=1, sets_per_slice=8, ways=2, seed=5)
        cache, ref = Cache(config), Cache(config)
        pollution = OsPollution(cache, n_lines=24, seed=3)
        pollution.fault_entry()
        for a in OsPollution(ref, n_lines=24, seed=3)._addrs:
            ref.access_silent(a, cos=0)
        _assert_same_state(cache, ref)
