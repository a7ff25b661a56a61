"""Differential equivalence tests for the performance work.

Every optimisation in the hot layers (taint algebra, cache model,
instrumentation tiers) claims to be *observably identical* to the
straightforward code it replaced.  These tests check that claim against
independent in-test reference implementations, driven by Hypothesis:

* ``BitTaint`` (canonical run lists of interned tag sets) vs a plain
  dict-of-frozensets reference with the original propagation rules.
* The columnar ZTRC memory writer vs the record-at-a-time encoder with
  the per-bit taint runs it replaced: same bytes, same refusals.
* The in-place Adam step (and ``fit``'s one float64 cast) vs the
  out-of-place update: bit-identical parameters.
* ``Cache`` (flat arrays, batched noise variates, silent accesses) vs a
  per-set-list reference that draws ``rng.gauss`` per timed access.
* ``TracingContext`` FULL vs ADDRESS_ONLY tiers: identical memory-access
  streams, byte-identical ZTRC serialisation, identical recovery
  metrics.
* The bzip2 layer: the bit-mask ftab decoder vs a per-position-set
  decoder, numpy prefix doubling and batched mainSort ticks vs
  list/per-comparison versions (same order, same virtual clock), and
  the parent-link Huffman depths and numpy table fitting vs the
  tuple-heap and loop versions.
"""

from __future__ import annotations

import heapq
import random
import zlib
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.model import LINE_SIZE, Cache, CacheConfig
from repro.classify import MLPClassifier
from repro.exec import InstrumentationTier, TracingContext
from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint, intern_tags
from repro.traces import format as fmt


# ----------------------------------------------------------------------
# BitTaint vs dict reference
# ----------------------------------------------------------------------
class RefTaint:
    """The original dict-per-bit taint algebra, kept as an oracle."""

    def __init__(self, bits=None):
        self.bits = bits or {}

    @classmethod
    def byte(cls, tag, lo_bit=0):
        tags = frozenset((tag,))
        return cls({bit: tags for bit in range(lo_bit, lo_bit + 8)})

    def union(self, other):
        bits = dict(self.bits)
        for bit, tags in other.bits.items():
            mine = bits.get(bit)
            bits[bit] = tags if mine is None else mine | tags
        return RefTaint(bits)

    def shifted(self, amount):
        return RefTaint(
            {
                bit + amount: tags
                for bit, tags in self.bits.items()
                if bit + amount >= 0
            }
        )

    def masked(self, mask):
        return RefTaint(
            {bit: tags for bit, tags in self.bits.items() if (mask >> bit) & 1}
        )

    def truncated(self, width):
        return RefTaint(
            {bit: tags for bit, tags in self.bits.items() if bit < width}
        )

    def smeared(self, width):
        if not self.bits:
            return self
        all_tags = frozenset().union(*self.bits.values())
        return RefTaint(
            {bit: all_tags for bit in range(min(self.bits), width)}
        )

    def carry_extended(self, width):
        if not self.bits:
            return self
        bits = {}
        running = set()
        for bit in range(min(self.bits), width):
            running |= self.bits.get(bit, frozenset())
            if running:
                bits[bit] = frozenset(running)
        return RefTaint(bits)

    def sign_extended(self, from_width, to_width):
        sign = self.bits.get(from_width - 1)
        if sign is None or to_width <= from_width:
            return self.truncated(to_width)
        bits = {b: t for b, t in self.bits.items() if b < from_width}
        for bit in range(from_width, to_width):
            bits[bit] = sign
        return RefTaint(bits)


def observable(t):
    """Representation-independent view of a taint: sorted (bit, tags)."""
    if isinstance(t, RefTaint):
        return sorted(t.bits.items())
    return list(t)


def assert_canonical(t):
    """The run tuple invariants every BitTaint keeps."""
    prev = None
    for lo, hi, tags in t.runs:
        assert lo < hi and tags, t.runs
        assert intern_tags(tags) is tags, t.runs
        if prev is not None:
            assert prev[1] <= lo, t.runs
            assert not (prev[1] == lo and prev[2] == tags), t.runs
        prev = (lo, hi, tags)


def rebuilt(t):
    """The same taint built another way: a per-bit dict of fresh,
    equal but non-identical tag sets."""
    return BitTaint({bit: frozenset(list(tags)) for bit, tags in t})


# A start value: one input byte, or a dict with gaps whose equal tag
# sets are distinct objects (the constructor must intern and merge).
_dict_entries = st.lists(
    st.tuples(st.integers(0, 30), st.sets(st.integers(0, 5), min_size=1, max_size=2)),
    max_size=10,
)
_starts = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 5), st.integers(0, 8)),
    st.tuples(st.just("dict"), _dict_entries),
)


def _start(start):
    if start[0] == "byte":
        _, tag, lo = start
        return BitTaint.byte(tag, lo), RefTaint.byte(tag, lo)
    bits = dict(start[1])
    return (
        BitTaint({bit: frozenset(list(tags)) for bit, tags in bits.items()}),
        RefTaint({bit: frozenset(tags) for bit, tags in bits.items()}),
    )


# One step of the differential walk: (method, args) applied to both.
_unary_ops = st.one_of(
    st.tuples(st.just("shifted"), st.integers(-20, 20)),
    st.tuples(st.just("masked"), st.integers(0, (1 << 24) - 1)),
    st.tuples(st.just("truncated"), st.integers(0, 32)),
    st.tuples(st.just("smeared"), st.integers(1, 32)),
    st.tuples(st.just("carry_extended"), st.integers(1, 32)),
    st.tuples(
        st.just("sign_extended"), st.integers(1, 16), st.integers(1, 32)
    ),
    st.tuples(
        st.just("union_byte"), st.integers(0, 5), st.integers(0, 16)
    ),
)
# ...plus a union with a second walked (typically multi-run) taint.
_taint_ops = st.one_of(
    _unary_ops,
    st.tuples(st.just("union_walked"), _starts, st.lists(_unary_ops, max_size=6)),
)


def _walk(fast, ref, ops):
    for op in ops:
        name, args = op[0], op[1:]
        if name == "union_byte":
            other_tag, other_lo = args
            fast = fast.union(BitTaint.byte(other_tag, other_lo))
            ref = ref.union(RefTaint.byte(other_tag, other_lo))
        elif name == "union_walked":
            other_fast, other_ref = _walk(*_start(args[0]), args[1])
            fast = fast.union(other_fast)
            ref = ref.union(other_ref)
        else:
            fast = getattr(fast, name)(*args)
            ref = getattr(ref, name)(*args)
        assert observable(fast) == observable(ref), name
        assert_canonical(fast)
    return fast, ref


@given(start=_starts, ops=st.lists(_taint_ops, max_size=12))
@settings(max_examples=300, deadline=None)
def test_bittaint_matches_dict_reference(start, ops):
    fast, ref = _start(start)
    assert observable(fast) == observable(ref)
    assert_canonical(fast)
    for op in ops:
        fast, ref = _walk(fast, ref, [op])
        # Derived views must agree with the per-bit map.
        assert fast.tainted_bits() == [b for b, _ in observable(ref)]
        assert fast.is_empty() == (not ref.bits)
        all_tags = frozenset().union(frozenset(), *ref.bits.values())
        assert fast.tags() == all_tags
        for bit in range(-1, 40):
            assert fast.at(bit) == ref.bits.get(bit, frozenset())
        # Built another way, the taint is equal and hashes alike.
        other = rebuilt(fast)
        assert other == fast and hash(other) == hash(fast)


@given(tag=st.integers(0, 3), lo=st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_run_and_dict_backed_equal_and_hash_alike(tag, lo):
    run_backed = BitTaint.byte(tag, lo)
    dict_backed = BitTaint(
        {bit: frozenset((tag,)) for bit in range(lo, lo + 8)}
    )
    assert run_backed == dict_backed
    assert hash(run_backed) == hash(dict_backed)
    assert observable(run_backed) == observable(dict_backed)
    # And after an op that forces the run out of shape:
    assert run_backed.masked(0b1010101010101010) == dict_backed.masked(
        0b1010101010101010
    )


# ----------------------------------------------------------------------
# Columnar ZTRC memory writer vs the record-at-a-time reference
# ----------------------------------------------------------------------
def ref_encode_bittaint(out, taint):
    """The per-bit taint encoder the run-list writer replaced."""
    runs = []  # (start, length, sorted tags)
    for bit, tags in taint:
        ordered = tuple(sorted(tags))
        if runs and runs[-1][0] + runs[-1][1] == bit and runs[-1][2] == ordered:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1, ordered)
        else:
            runs.append((bit, 1, ordered))
    if runs and runs[-1][0] + runs[-1][1] > fmt.MAX_TAINT_BITS:
        raise ValueError(f"taint reaches past bit {fmt.MAX_TAINT_BITS}")
    fmt.write_uvarint(out, len(runs))
    prev_end = 0
    for start, length, ordered in runs:
        fmt.write_uvarint(out, start - prev_end)
        fmt.write_uvarint(out, length)
        prev_end = start + length
        fmt.write_uvarint(out, len(ordered))
        prev_tag = 0
        for tag in ordered:
            fmt.write_uvarint(out, tag - prev_tag)
            prev_tag = tag


def ref_serialize_memory(records, chunk_records):
    """Whole ``.trc`` bytes from the per-record memory encoder."""
    strings = fmt._StringTable()
    blob = bytearray(fmt._HEADER.pack(
        fmt.MAGIC, fmt.FORMAT_VERSION, fmt._SPECIES_CODES[fmt.SPECIES_MEMORY], 0
    ))
    b = fmt._FIELD_BOUND
    for first in range(0, len(records), chunk_records):
        chunk = records[first : first + chunk_records]
        block = bytearray()
        directory = bytearray()
        prev_seq = prev_index = prev_address = 0
        for record in chunk:
            before = len(block)
            if not (-b < record.seq < b and -b < record.index < b
                    and -b < record.address < b and 0 <= record.elem_size < b):
                raise ValueError(
                    f"memory record {record.seq}: a field lies outside +-2**61"
                )
            fmt.write_svarint(block, record.seq - prev_seq)
            prev_seq = record.seq
            fmt.write_uvarint(block, strings.intern(record.kind))
            fmt.write_uvarint(block, strings.intern(record.array))
            fmt.write_svarint(block, record.index - prev_index)
            prev_index = record.index
            fmt.write_uvarint(block, record.elem_size)
            fmt.write_svarint(block, record.address - prev_address)
            prev_address = record.address
            fmt.write_uvarint(block, strings.intern(record.site))
            ref_encode_bittaint(block, record.addr_taint)
            ref_encode_bittaint(block, record.value_taint)
            flags = (bool(record.addr_taint) << 1) | bool(record.value_taint)
            fmt.write_uvarint(directory, ((len(block) - before) << 2) | flags)
        payload = bytearray()
        strings.flush_prelude(payload)
        fmt.write_uvarint(payload, len(chunk))
        fmt.write_uvarint(payload, len(directory))
        payload += directory + block
        blob += fmt._CHUNK_HEADER.pack(len(payload), zlib.crc32(payload))
        blob += payload
    return bytes(blob)


_EDGE = (1 << 61) - 1
_fields = st.one_of(
    st.integers(-300, 300),
    st.integers(-_EDGE, _EDGE),
    st.sampled_from([_EDGE, -_EDGE]),
)


@st.composite
def _stored_taints(draw):
    """Empty, one-run and multi-run taints; bits and tags past 127 so
    gaps, lengths and tags need multi-byte varints."""
    kind = draw(st.sampled_from(["empty", "byte", "bits", "union"]))
    if kind == "empty":
        return BitTaint.empty()
    if kind == "byte":
        return BitTaint.byte(draw(st.integers(0, 400)), draw(st.integers(0, 300)))
    taint = BitTaint.empty()
    for _ in range(draw(st.integers(1, 3))):
        bits = draw(st.lists(st.integers(0, 400), min_size=1, max_size=12))
        taint = taint.union(BitTaint.of_bits(draw(st.integers(0, 70_000)), bits))
        if kind == "bits":
            break
    return taint


# Pools larger than one chunk's draw, so strings first appear mid-trace.
_memory_records = st.builds(
    MemoryAccess,
    seq=_fields,
    kind=st.sampled_from(["read", "write", "update"]),
    array=st.sampled_from([f"arr{i}" for i in range(12)]),
    index=_fields,
    elem_size=st.one_of(st.sampled_from([1, 2, 4, 8]), st.integers(0, _EDGE)),
    address=_fields,
    addr_taint=_stored_taints(),
    value_taint=_stored_taints(),
    site=st.sampled_from(["", "s/é", *(f"site{i}" for i in range(12))]),
)


def _serialize_both(records, chunk_records):
    """(outcome of the writer, outcome of the reference): bytes, or the
    ValueError message."""
    outcomes = []
    for serialize in (
        lambda: fmt.serialize_records(
            fmt.SPECIES_MEMORY, records, chunk_records=chunk_records
        ),
        lambda: ref_serialize_memory(records, chunk_records),
    ):
        try:
            outcomes.append(serialize())
        except ValueError as exc:
            outcomes.append(("ValueError", str(exc)))
    return outcomes


@given(records=st.lists(_memory_records, min_size=1, max_size=25), data=st.data())
@settings(max_examples=150, deadline=None)
def test_columnar_memory_writer_matches_record_reference(records, data):
    chunk_records = data.draw(st.integers(1, len(records)))
    ours, ref = _serialize_both(records, chunk_records)
    assert isinstance(ours, bytes)
    assert ours == ref


_bad_fields = st.one_of(
    st.tuples(st.sampled_from(["seq", "index", "address"]),
              st.sampled_from([1 << 61, -(1 << 61), 1 << 63, -(1 << 70)])),
    st.tuples(st.just("elem_size"), st.sampled_from([-1, 1 << 61, 1 << 64])),
    st.tuples(st.sampled_from(["addr_taint", "value_taint"]),
              st.sampled_from([fmt.MAX_TAINT_BITS, fmt.MAX_TAINT_BITS + 300])),
)


@given(
    records=st.lists(_memory_records, min_size=1, max_size=12),
    bad=st.lists(st.tuples(st.integers(0, 11), _bad_fields), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_columnar_memory_writer_refuses_what_the_reference_refuses(records, bad, data):
    for position, (name, value) in bad:
        record = records[position % len(records)]
        if name.endswith("taint"):
            value = BitTaint.of_bits(7, [value])
        setattr(record, name, value)
    chunk_records = data.draw(st.integers(1, len(records)))
    ours, ref = _serialize_both(records, chunk_records)
    assert isinstance(ref, tuple)
    assert ours == ref


# ----------------------------------------------------------------------
# In-place Adam vs the out-of-place reference step
# ----------------------------------------------------------------------
class RefAdamMLP(MLPClassifier):
    """The classifier with the out-of-place Adam update it used to run."""

    def _step(self, x, y):
        z1, a1, logits = self._forward(x)
        probs = self._softmax(logits)
        n = len(y)
        loss = -np.log(probs[np.arange(n), y] + 1e-12).mean()
        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads = {"W2": a1.T @ dlogits, "b2": dlogits.sum(axis=0)}
        da1 = dlogits @ self.params["W2"].T
        dz1 = da1 * (z1 > 0)
        grads["W1"] = x.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for key, grad in grads.items():
            self._adam_m[key] = beta1 * self._adam_m[key] + (1 - beta1) * grad
            self._adam_v[key] = beta2 * self._adam_v[key] + (1 - beta2) * grad**2
            m_hat = self._adam_m[key] / (1 - beta1**self._adam_t)
            v_hat = self._adam_v[key] / (1 - beta2**self._adam_t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + eps)
        return float(loss)

    def fit_reference(self, x, y, epochs, batch_size):
        """The training loop without the one-off float64 cast."""
        for _ in range(epochs):
            order = self._rng.permutation(len(x))
            for start in range(0, len(x), batch_size):
                batch = order[start : start + batch_size]
                self._step(x[batch], y[batch])


def _classifier_data(dtype, n=23, n_inputs=17, n_classes=4):
    rng = np.random.default_rng(5)
    x = (rng.random((n, n_inputs)) < 0.3).astype(dtype) * rng.random(n_inputs)
    y = rng.integers(0, n_classes, n)
    return x.astype(dtype), y


def _assert_same_params(ours, ref):
    for key in ref.params:
        assert np.array_equal(ours.params[key], ref.params[key]), key
        assert np.array_equal(ours._adam_m[key], ref._adam_m[key]), key
        assert np.array_equal(ours._adam_v[key], ref._adam_v[key]), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_size", [1, 5])  # 23 % 5: a ragged last batch
def test_adam_step_matches_out_of_place_reference(dtype, batch_size):
    x, y = _classifier_data(dtype)
    ours = MLPClassifier(x.shape[1], 4, hidden=9, seed=3)
    ref = RefAdamMLP(x.shape[1], 4, hidden=9, seed=3)
    for start in range(0, len(x), batch_size):
        batch = slice(start, start + batch_size)
        assert ours._step(x[batch], y[batch]) == ref._step(x[batch], y[batch])
    _assert_same_params(ours, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_size", [1, 5])
def test_fit_matches_reference_training_loop(dtype, batch_size):
    x, y = _classifier_data(dtype)
    ours = MLPClassifier(x.shape[1], 4, hidden=9, seed=3)
    ref = RefAdamMLP(x.shape[1], 4, hidden=9, seed=3)
    ours.fit(x, y, epochs=3, batch_size=batch_size)
    ref.fit_reference(x, y, epochs=3, batch_size=batch_size)
    _assert_same_params(ours, ref)


# ----------------------------------------------------------------------
# Cache vs reference model
# ----------------------------------------------------------------------
class RefCache:
    """Straightforward per-set-list cache with the same contract.

    Draws latency noise with ``rng.gauss`` per *timed* access (the
    optimized model batches the identical Box-Muller recurrence), uses
    plain lists per set, recomputes the slice hash per access, and
    implements PLRU victim selection by walking the tree with a list of
    allowed ways.
    """

    def __init__(self, config):
        self.config = config
        self.rng = random.Random(config.seed)
        self.stamp = 0
        n_sets = config.n_slices * config.sets_per_slice
        self.tags = [[-1] * config.ways for _ in range(n_sets)]
        self.stamps = [[0] * config.ways for _ in range(n_sets)]
        self.plru_bits = [[0] * (config.ways - 1) for _ in range(n_sets)]
        self.cos_masks = {0: tuple(range(config.ways))}
        self.hits = self.misses = self.evictions = self.flushes = 0

    # -- mapping (independent implementation) --------------------------
    def _slice_of(self, paddr):
        if self.config.n_slices == 1:
            return 0
        from repro.cache.model import _SLICE_MASKS

        bits = (self.config.n_slices - 1).bit_length()
        out = 0
        for k in range(bits):
            out |= (bin(paddr & _SLICE_MASKS[k]).count("1") & 1) << k
        return out % self.config.n_slices

    def _set_index(self, paddr):
        sl = self._slice_of(paddr)
        st_ = (paddr >> 6) & (self.config.sets_per_slice - 1)
        return sl * self.config.sets_per_slice + st_

    # -- PLRU (list-walk implementation) --------------------------------
    def _plru_touch(self, idx, way):
        bits = self.plru_bits[idx]
        node, lo, hi = 0, 0, self.config.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1
                node, hi = 2 * node + 1, mid
            else:
                bits[node] = 0
                node, lo = 2 * node + 2, mid

    def _plru_victim(self, idx, allowed):
        bits = self.plru_bits[idx]
        node, lo, hi = 0, 0, self.config.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            left_ok = any(lo <= w < mid for w in allowed)
            right_ok = any(mid <= w < hi for w in allowed)
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

    # -- accesses -------------------------------------------------------
    def _touch_line(self, paddr, cos):
        """(hit, evicted) state transition shared by all access kinds."""
        tag = paddr >> 6
        idx = self._set_index(paddr)
        self.stamp += 1
        tags = self.tags[idx]
        plru = self.config.replacement == "plru"
        if tag in tags:
            way = tags.index(tag)
            self.stamps[idx][way] = self.stamp
            if plru:
                self._plru_touch(idx, way)
            self.hits += 1
            return True, None
        self.misses += 1
        allowed = self.cos_masks.get(cos) or self.cos_masks[0]
        victim = None
        for w in allowed:
            if tags[w] == -1:
                victim = w
                break
        evicted = None
        if victim is None:
            if plru:
                victim = self._plru_victim(idx, allowed)
            else:
                victim = min(allowed, key=lambda w: self.stamps[idx][w])
            evicted = tags[victim] << 6
            self.evictions += 1
        tags[victim] = tag
        self.stamps[idx][victim] = self.stamp
        if plru:
            self._plru_touch(idx, victim)
        return False, evicted

    def access(self, paddr, cos=0):
        hit, evicted = self._touch_line(paddr, cos)
        base = (
            self.config.hit_latency if hit else self.config.miss_latency
        )
        lat = self.rng.gauss(base, self.config.noise_sigma)
        return hit, max(lat, 1.0), evicted

    def access_silent(self, paddr, cos=0):
        self._touch_line(paddr, cos)

    def flush(self, paddr):
        tag = paddr >> 6
        idx = self._set_index(paddr)
        if tag in self.tags[idx]:
            self.tags[idx][self.tags[idx].index(tag)] = -1
        self.flushes += 1


_cache_step = st.tuples(
    st.sampled_from(["access", "timed", "silent", "flush"]),
    st.integers(0, 95),  # line index; small range forces conflicts
    st.sampled_from([0, 1]),  # class of service
)


@pytest.mark.parametrize("replacement", ["lru", "plru"])
@given(steps=st.lists(_cache_step, min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_cache_matches_reference_model(replacement, steps):
    cfg = CacheConfig(
        n_slices=2,
        sets_per_slice=16,
        ways=4,
        seed=99,
        replacement=replacement,
    )
    fast = Cache(cfg)
    ref = RefCache(cfg)
    fast.cos_masks[1] = ref.cos_masks[1] = (0, 1)
    for kind, line, cos in steps:
        paddr = line * LINE_SIZE
        if kind == "access":
            got = fast.access(paddr, cos)
            hit, lat, evicted = ref.access(paddr, cos)
            assert (got.hit, got.latency, got.evicted) == (hit, lat, evicted)
        elif kind == "timed":
            assert fast.access_timed(paddr, cos) == ref.access(paddr, cos)[1]
        elif kind == "silent":
            fast.access_silent(paddr, cos)
            ref.access_silent(paddr, cos)
        else:
            fast.flush(paddr)
            ref.flush(paddr)
    assert fast.stats == {
        "hits": ref.hits,
        "misses": ref.misses,
        "evictions": ref.evictions,
        "flushes": ref.flushes,
    }
    for line in range(96):
        assert fast.contains(line * LINE_SIZE) == (
            (line) in ref.tags[ref._set_index(line * LINE_SIZE)]
        )


# ----------------------------------------------------------------------
# FULL vs ADDRESS_ONLY tiers
# ----------------------------------------------------------------------
def _run_target(target, data, tier):
    ctx = TracingContext(tier=tier)
    if target == "zlib":
        from repro.compression import deflate_compress

        deflate_compress(data, ctx=ctx)
    elif target == "lzw":
        from repro.compression import lzw_compress

        lzw_compress(data, ctx=ctx)
    else:
        from repro.compression.bzip2.blocksort import histogram

        block = ctx.array("block", len(data))
        for i, v in enumerate(ctx.input_bytes(data)):
            block.set(i, v)
        histogram(ctx, block, len(data))
    return ctx


@pytest.mark.parametrize("target", ["zlib", "lzw", "bzip2"])
@given(data=st.binary(min_size=30, max_size=120))
@settings(max_examples=8, deadline=None)
def test_address_only_tier_trace_is_byte_identical(target, data):
    from repro.traces.format import SPECIES_MEMORY, serialize_records

    full = _run_target(target, data, InstrumentationTier.FULL)
    addr = _run_target(target, data, InstrumentationTier.ADDRESS_ONLY)

    fa = full.memory_accesses()
    aa = addr.memory_accesses()
    assert [(a.seq, a.address, a.kind, a.site) for a in fa] == [
        (a.seq, a.address, a.kind, a.site) for a in aa
    ]
    assert serialize_records(SPECIES_MEMORY, fa) == serialize_records(
        SPECIES_MEMORY, aa
    )
    # The lower tier really did skip the data-flow records...
    from repro.taint.value import CompareRecord, OpRecord

    assert not any(isinstance(e, (OpRecord, CompareRecord)) for e in addr.events)
    assert any(isinstance(e, (OpRecord, CompareRecord)) for e in full.events)


def test_survey_metrics_identical_across_tiers(monkeypatch):
    """survey_recovery (which now runs ADDRESS_ONLY) must report the
    same metrics as a forced-FULL run."""
    from repro.campaign.experiments import get_experiment
    from repro.exec import context as context_mod

    fn = get_experiment("survey_recovery")
    fast = fn({"size": 150}, 7)

    real_init = context_mod.TracingContext.__init__

    def full_init(self, *args, **kwargs):
        kwargs["tier"] = InstrumentationTier.FULL
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(context_mod.TracingContext, "__init__", full_init)
    slow = fn({"size": 150}, 7)
    assert fast == slow


# ----------------------------------------------------------------------
# bzip2 layer vs list/set references
# ----------------------------------------------------------------------
def ref_recover_bzip2_block(observations, ftab_base, n, max_rounds=4):
    """The per-position ``set`` decoder, kept as an oracle.

    Returns ``(candidates, values)``.
    """

    def pairs_for_line(line):
        lo_addr = line << 6
        j_lo = max(0, -(-(lo_addr - ftab_base) // 4))
        j_hi = min(0xFFFF, (lo_addr + 63 - ftab_base) // 4)
        return {(j >> 8, j & 0xFF) for j in range(j_lo, j_hi + 1)}

    candidates = [set(range(256)) for _ in range(n)]
    pair_sets = [None] * n
    for i in range(n):
        obs = observations[i] if i < len(observations) else None
        if not obs:
            continue
        pairs = set()
        for line in obs:
            pairs |= pairs_for_line(line)
        if pairs:
            pair_sets[i] = pairs
    for i, pairs in enumerate(pair_sets):
        if pairs is None:
            continue
        candidates[i] &= {hi for hi, _ in pairs}
        candidates[(i + 1) % n] &= {lo for _, lo in pairs}
    for _ in range(max_rounds):
        changed = False
        for i, pairs in enumerate(pair_sets):
            if pairs is None:
                continue
            nxt = (i + 1) % n
            ok_pairs = {
                (hi, lo)
                for hi, lo in pairs
                if hi in candidates[i] and lo in candidates[nxt]
            }
            if not ok_pairs:
                continue
            new_hi = {hi for hi, _ in ok_pairs}
            new_lo = {lo for _, lo in ok_pairs}
            if new_hi != candidates[i]:
                candidates[i] = new_hi
                changed = True
            if new_lo != candidates[nxt]:
                candidates[nxt] = new_lo
                changed = True
        if not changed:
            break
    return candidates, [min(c) if c else 0 for c in candidates]


def ref_fallback_sort(values):
    """List-based prefix doubling; returns ``(order, ticks)``."""
    n = len(values)
    rank = list(values)
    order = sorted(range(n), key=rank.__getitem__)
    ticks = n
    h = 1
    while h < n:
        key = list(zip(rank, rank[h:] + rank[:h]))
        order.sort(key=key.__getitem__)
        new_rank = [0] * n
        r = 0
        for pos in range(1, n):
            if key[order[pos]] != key[order[pos - 1]]:
                r += 1
            new_rank[order[pos]] = r
        ticks += 3 * n
        rank = new_rank
        if r == n - 1:
            break
        h *= 2
    return order, ticks


def ref_main_sort(values, budget):
    """mainSort with a byte-at-a-time comparator that ticks per call.

    Returns ``(order, ticks)``; ``order`` is None when the budget runs
    out, and ``ticks`` then counts up to the exhausting comparison.
    """
    from repro.compression.bzip2.blocksort import FTAB_LEN

    n = len(values)
    state = {"left": budget, "ticks": 3 * n + FTAB_LEN // 16 + n}

    def rot(i, k):
        return values[(i + k) % n]

    class Exhausted(Exception):
        pass

    def compare(a, b):
        m = 0
        while m < n and rot(a, 2 + m) == rot(b, 2 + m):
            m += 1
        state["left"] -= m + 1
        state["ticks"] += (m >> 2) + 1
        if state["left"] < 0:
            raise Exhausted
        if m >= n:
            return 0
        return -1 if rot(a, 2 + m) < rot(b, 2 + m) else 1

    buckets = {}
    for i in range(n):
        buckets.setdefault((values[i] << 8) | values[(i + 1) % n], []).append(i)
    order = []
    try:
        for j in sorted(buckets):
            order += sorted(buckets[j], key=cmp_to_key(compare))
    except Exhausted:
        return None, state["ticks"]
    return order, state["ticks"]


def ref_huffman_lengths(weights, present):
    """The tuple-heap Huffman that re-walks merged symbol tuples."""
    heap = []
    counter = 0
    for i in present:
        heap.append((weights[i], counter, (i,)))
        counter += 1
    heapq.heapify(heap)
    depth = {i: 0 for i in present}
    while len(heap) > 1:
        wa, _, syms_a = heapq.heappop(heap)
        wb, _, syms_b = heapq.heappop(heap)
        merged = syms_a + syms_b
        for sym in merged:
            depth[sym] += 1
        counter += 1
        heapq.heappush(heap, (wa + wb, counter, merged))
    lengths = [0] * len(weights)
    for i in present:
        lengths[i] = depth[i]
    return lengths


def ref_build_code_lengths(freqs, max_len):
    weights = [max(f, 0) for f in freqs]
    present = [i for i, f in enumerate(weights) if f > 0]
    if not present:
        return [0] * len(freqs)
    if len(present) == 1:
        lengths = [0] * len(freqs)
        lengths[present[0]] = 1
        return lengths
    while True:
        lengths = ref_huffman_lengths(weights, present)
        if max(lengths[i] for i in present) <= max_len:
            return lengths
        weights = [(w // 2) + 1 if w > 0 else 0 for w in weights]


def ref_fit_tables(symbols, alpha_size, n_groups):
    """The per-group loop table fitter (min over tables, first wins)."""
    from repro.compression.bzip2.huffman import build_code_lengths
    from repro.compression.bzip2.multihuffman import (
        GROUP_SIZE,
        N_ITERS,
        _initial_lengths,
    )

    groups = [
        symbols[i : i + GROUP_SIZE] for i in range(0, len(symbols), GROUP_SIZE)
    ]
    freqs = [0] * alpha_size
    for sym in symbols:
        freqs[sym] += 1
    tables = _initial_lengths(freqs, n_groups, alpha_size)
    selectors = [0] * len(groups)
    for _ in range(N_ITERS):
        table_freqs = [[0] * alpha_size for _ in range(n_groups)]
        for g, group in enumerate(groups):
            best = min(
                range(n_groups),
                key=lambda t: sum(tables[t][sym] for sym in group),
            )
            selectors[g] = best
            for sym in group:
                table_freqs[best][sym] += 1
        for t in range(n_groups):
            tables[t] = build_code_lengths([f + 1 for f in table_freqs[t]])
    return tables, selectors


@st.composite
def _ftab_observations(draw):
    """A block's per-iteration observations: true lines, lost probes
    (``None``/``[]``), false positives and lines outside ftab."""
    n = draw(st.integers(0, 24))
    data = draw(st.binary(min_size=n, max_size=n))
    base = draw(st.integers(0, 1 << 12)) * 64 + draw(
        st.sampled_from([0, 4, 16, 48, 60])
    )
    first_line, last_line = base >> 6, (base + 4 * 0xFFFF) >> 6
    line = st.one_of(
        st.integers(first_line - 6, first_line + 6),
        st.integers(last_line - 6, last_line + 6),
        st.integers(first_line, last_line),
        st.integers(-4, 4),
    )
    observations = []
    for i in range(draw(st.integers(0, n + 2))):
        kind = draw(st.sampled_from(["true", "true", "none", "empty", "fp", "any"]))
        true = None
        if i < n:
            true = (base + 4 * ((data[i] << 8) | data[(i + 1) % n])) >> 6
        if kind == "none":
            observations.append(None)
        elif kind == "empty":
            observations.append([])
        elif kind == "any" or true is None:
            observations.append(draw(st.lists(line, min_size=1, max_size=3)))
        elif kind == "fp":
            observations.append([true] + draw(st.lists(line, max_size=2)))
        else:
            observations.append([true])
    return observations, base, n


@given(case=_ftab_observations(), max_rounds=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_bzip2_decoder_matches_set_reference(case, max_rounds):
    from repro.recovery.bzip2_recover import recover_bzip2_block

    observations, base, n = case
    got = recover_bzip2_block(observations, base, n, max_rounds=max_rounds)
    candidates, values = ref_recover_bzip2_block(
        observations, base, n, max_rounds=max_rounds
    )
    assert got.candidates == candidates
    assert got.values == values


def test_bzip2_line_pairs_match_enumeration():
    from repro.recovery.bzip2_recover import _line_pairs

    for base in (0x7F0000000030, 0x1000, 0x1004):
        expected = {}  # line -> {hi: lo_mask}, by enumerating every j
        for j in range(0x10000):
            pairs = expected.setdefault((base + 4 * j) >> 6, {})
            pairs[j >> 8] = pairs.get(j >> 8, 0) | (1 << (j & 0xFF))
        first_line = base >> 6
        for line in range(first_line - 3, first_line + 4100):
            assert dict(_line_pairs(line, base)) == expected.get(line, {})


_sort_blocks = st.one_of(
    st.binary(min_size=1, max_size=2),
    st.binary(min_size=1, max_size=80),
    st.builds(
        lambda unit, reps: unit * reps,
        st.binary(min_size=1, max_size=4),
        st.integers(2, 30),
    ),
)


def _native_block(values):
    from repro.exec.context import NativeContext, Profiler

    ctx = NativeContext(profiler=Profiler())
    block = ctx.array("block", len(values), elem_size=1)
    for i, v in enumerate(values):
        block.set(i, v)
    return ctx, block


@given(data=_sort_blocks)
@settings(max_examples=200, deadline=None)
def test_fallback_sort_matches_list_prefix_doubling(data):
    from repro.compression.bzip2.blocksort import fallback_sort

    ctx, block = _native_block(data)
    order = fallback_sort(ctx, block, len(data))
    ref_order, ref_ticks = ref_fallback_sort(list(data))
    assert order == ref_order
    assert ctx.profiler.now == ref_ticks
    assert ctx.profiler.intervals("fallbackSort") == [(0, ref_ticks)]


@given(data=_sort_blocks, work_factor=st.sampled_from([1, 3, 30, 300]))
@settings(max_examples=120, deadline=None)
def test_main_sort_batched_ticks_match_per_comparison(data, work_factor):
    from repro.compression.bzip2.blocksort import BudgetExhausted, main_sort

    ctx, block = _native_block(data)
    budget = work_factor * len(data)
    ref_order, ref_ticks = ref_main_sort(list(data), budget)
    if ref_order is None:
        with pytest.raises(BudgetExhausted):
            main_sort(ctx, block, len(data), budget)
    else:
        assert main_sort(ctx, block, len(data), budget) == ref_order
    assert ctx.profiler.now == ref_ticks
    assert ctx.profiler.intervals("mainSort") == [(0, ref_ticks)]


def _fibonacci_weights(k):
    weights = [1, 1]
    while len(weights) < k:
        weights.append(weights[-1] + weights[-2])
    return weights


_huffman_freqs = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=40),  # ties, zeros
    st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
    st.integers(0, 30).map(lambda k: [0] * k + [7]),  # single symbol
    st.integers(22, 40).map(_fibonacci_weights),  # deeper than MAX_CODE_LEN
)


@given(freqs=_huffman_freqs, max_len=st.sampled_from([8, 15, 20]))
@settings(max_examples=200, deadline=None)
def test_huffman_lengths_match_tuple_heap(freqs, max_len):
    from repro.compression.bzip2.huffman import (
        _huffman_lengths,
        build_code_lengths,
    )

    present = [i for i, f in enumerate(freqs) if f > 0]
    if present:
        assert _huffman_lengths(freqs, present) == ref_huffman_lengths(
            freqs, present
        )
    assert build_code_lengths(freqs, max_len) == ref_build_code_lengths(
        freqs, max_len
    )


def test_huffman_rescale_path_is_exercised():
    from repro.compression.bzip2.huffman import MAX_CODE_LEN, build_code_lengths

    freqs = _fibonacci_weights(30)
    present = list(range(len(freqs)))
    assert max(ref_huffman_lengths(freqs, present)) > MAX_CODE_LEN
    lengths = build_code_lengths(freqs)
    assert max(lengths) <= MAX_CODE_LEN
    assert lengths == ref_build_code_lengths(freqs, MAX_CODE_LEN)


@st.composite
def _symbol_streams(draw):
    alpha = draw(st.integers(2, 24))
    n_groups = draw(st.integers(2, 6))
    phases = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, alpha - 1), min_size=1, max_size=4),
                st.integers(1, 120),
            ),
            max_size=6,
        )
    )
    rng = random.Random(draw(st.integers(0, 2**16)))
    symbols = [rng.choice(subset) for subset, length in phases for _ in range(length)]
    return symbols, alpha, n_groups


@given(case=_symbol_streams())
@settings(max_examples=150, deadline=None)
def test_fit_tables_matches_loop_reference(case):
    from repro.compression.bzip2.multihuffman import fit_tables

    symbols, alpha, n_groups = case
    assert fit_tables(symbols, alpha, n_groups) == ref_fit_tables(
        symbols, alpha, n_groups
    )
