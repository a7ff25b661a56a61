"""Integration tests for the end-to-end SGX extraction attack."""

import hashlib

import pytest

from repro.cache import CacheConfig
from repro.core.zipchannel import AttackConfig, SgxBzip2Attack
from repro.workloads.generators import lowercase_ascii, random_bytes


class TestAttackEndToEnd:
    def test_random_data_extraction(self):
        secret = random_bytes(256, seed=42)
        outcome = SgxBzip2Attack(secret).run()
        assert outcome.bit_accuracy > 0.99
        assert outcome.faults == 3 * len(secret)

    def test_text_extraction(self):
        secret = lowercase_ascii(300, seed=1)
        outcome = SgxBzip2Attack(secret).run()
        assert outcome.bit_accuracy > 0.99

    def test_recovered_bytes_match(self):
        secret = random_bytes(200, seed=7)
        outcome = SgxBzip2Attack(secret).run()
        matches = sum(
            1 for got, want in zip(outcome.recovered.values, secret) if got == want
        )
        assert matches >= 0.98 * len(secret)

    def test_summary_smoke(self):
        outcome = SgxBzip2Attack(random_bytes(64, seed=0)).run()
        text = outcome.summary()
        assert "bit accuracy" in text and "faults" in text

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            SgxBzip2Attack(b"")

    def test_attack_does_not_corrupt_victim(self):
        """Single-stepping must be transparent: the histogram the victim
        computes is identical to an unattacked run."""
        secret = random_bytes(150, seed=3)
        attack = SgxBzip2Attack(secret)
        attack.run()
        counts = attack.ftab.snapshot()
        assert sum(counts) == len(secret)
        n = len(secret)
        for i in range(n):
            j = (secret[i] << 8) | secret[(i + 1) % n]
            assert counts[j] >= 1


class TestAblations:
    """The paper's accuracy techniques must each earn their keep."""

    def test_frame_selection_reduces_ambiguity(self):
        secret = random_bytes(300, seed=9)
        with_fs = SgxBzip2Attack(secret, AttackConfig()).run()
        without_fs = SgxBzip2Attack(
            secret, AttackConfig(use_frame_selection=False)
        ).run()
        assert (
            without_fs.observations_ambiguous > with_fs.observations_ambiguous
        )
        assert with_fs.bit_accuracy >= without_fs.bit_accuracy

    def test_cat_removes_background_false_positives(self):
        secret = random_bytes(250, seed=11)
        noisy = dict(background_noise_rate=40)
        with_cat = SgxBzip2Attack(
            secret, AttackConfig(use_cat=True, **noisy)
        ).run()
        without_cat = SgxBzip2Attack(
            secret, AttackConfig(use_cat=False, **noisy)
        ).run()
        assert with_cat.observations_ambiguous < without_cat.observations_ambiguous
        assert with_cat.bit_accuracy >= without_cat.bit_accuracy

    def test_error_correction_survives_heavy_noise(self):
        secret = random_bytes(300, seed=13)
        outcome = SgxBzip2Attack(
            secret,
            AttackConfig(
                use_cat=False,
                use_frame_selection=False,
                background_noise_rate=30,
            ),
        ).run()
        # Even the stripped-down attack stays far above chance (50% bits).
        assert outcome.bit_accuracy > 0.9


class TestExactWork:
    """The attack's cache and page-table work, pinned count for count.

    A speedup of the cache or memsys model must leave every hit, miss,
    eviction, fault and frame remap where it was; a change in any of
    them fails here with the count's name."""

    @pytest.mark.parametrize(
        "n, overrides, expected",
        [
            (1500, {}, (428096, 15583, 3574, 4500, 62)),
            (1500, {"use_frame_selection": False},
             (402435, 19068, 7749, 4500, 0)),
            (300, {"use_cat": False}, (846700, 77699, 20142, 900, 62)),
        ],
        ids=["default", "no_frame_selection", "no_cat"],
    )
    def test_counts_match_recorded(self, n, overrides, expected):
        attack = SgxBzip2Attack(
            random_bytes(n, seed=5), AttackConfig(**overrides)
        )
        outcome = attack.run()
        stats = attack.cache.stats
        got = {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "evictions": stats["evictions"],
            "faults": outcome.faults,
            "frame_remaps": outcome.frame_remaps,
        }
        assert got == dict(zip(got, expected))


def _attack_state_sha256(attack) -> str:
    """One digest over the attack's whole simulated state: cache tags
    and LRU stamps, the latency-noise cursor and RNG, every Prime+Probe
    observation, and the page table (vpn, frame, permissions)."""
    cache, space = attack.cache, attack.space
    h = hashlib.sha256()
    h.update(cache._tags.tobytes())
    h.update(cache._stamps.tobytes())
    h.update(repr((cache._zi, cache._rng.getstate())).encode())
    h.update(repr(attack._observations).encode())
    pages = sorted(
        (vpn, entry.frame, entry.perms.value)
        for vpn, entry in space._pages.items()
    )
    h.update(repr(pages).encode())
    return h.hexdigest()


class TestExactState:
    """The attack's full final state, pinned by digest.

    Counts (``TestExactWork``) can agree while the state differs: a
    cache or memsys change that reorders fills, stamps, noise draws or
    remaps fails here even when every total is unchanged."""

    @pytest.mark.parametrize(
        "n, overrides, expected",
        [
            (1500, {},
             "8fbb812ff9a241f348798a36578aa8d5ce7242884d397f8148aa91f581d4a980"),
            (1500, {"use_frame_selection": False},
             "231cac18a84e4ab092f9f2f7a13433a1069b3bdb8ac9545f05707f4772944394"),
            (300, {"use_cat": False},
             "b0a157127fa4b94eb4266b732350a16f009c8f7aec5ad0bf8be384cfb28de832"),
            (1500, {"background_noise_rate": 8},
             "dfbd6b2779d6ba6adb1829ec33f36900b1d4769b78227d06bf228b4e347c66c8"),
            # PLRU walks every working set through the per-address loop.
            # With CAT's one attack way no PLRU victim choice differs
            # from LRU's, so this row's digest equals "default"'s; the
            # no-CAT row is where the trees pick the victims.
            (1500, {"cache": CacheConfig(replacement="plru")},
             "8fbb812ff9a241f348798a36578aa8d5ce7242884d397f8148aa91f581d4a980"),
            (300, {"use_cat": False,
                   "cache": CacheConfig(replacement="plru")},
             "218e75d8ca345561e2a75aa8c51b59c5516d6a424213672c15465a6da1cfcd5e"),
        ],
        ids=["default", "no_frame_selection", "no_cat", "noise_rate_8",
             "plru", "plru_no_cat"],
    )
    def test_state_matches_recorded(self, n, overrides, expected):
        attack = SgxBzip2Attack(
            random_bytes(n, seed=5), AttackConfig(**overrides)
        )
        attack.run()
        assert _attack_state_sha256(attack) == expected
