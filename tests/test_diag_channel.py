"""Channel-health probes: determinism, margin behaviour, fidelity.

These probes feed the CHANNEL claim, so the load-bearing property is
that each one is a pure function of its seed arguments — asserted by
running everything twice — and that the numbers move the right way
when the channel is degraded (σ bump shrinks the margin).
"""

import math

import pytest

from repro.cache.model import CacheConfig
from repro.diag.channel import (
    channel_health,
    eviction_quality,
    fingerprint_confusion,
    render_channel_health,
    render_timing_margins,
    single_step_fidelity,
    timing_margins,
)

SAMPLES = 400


class TestTimingMargins:
    def test_deterministic_given_config(self):
        a = timing_margins(samples=SAMPLES)
        b = timing_margins(samples=SAMPLES)
        assert a == b

    def test_default_channel_is_cleanly_separated(self):
        report = timing_margins(samples=SAMPLES)
        assert report["hit_mean"] < report["threshold"] < report["miss_mean"]
        assert report["misclassified_rate"] == 0.0
        assert report["margin_sigma"] > 5.0
        assert sum(report["histogram"]["hits"]) == SAMPLES
        assert sum(report["histogram"]["misses"]) == SAMPLES

    def test_noise_bump_shrinks_the_margin(self):
        clean = timing_margins(samples=SAMPLES)
        noisy = timing_margins(
            config=CacheConfig(noise_sigma=30.0), samples=SAMPLES
        )
        assert noisy["margin_sigma"] < clean["margin_sigma"]
        assert noisy["empirical_separation"] < clean["empirical_separation"]
        assert noisy["misclassified_rate"] >= clean["misclassified_rate"]

    def test_noiseless_margin_is_infinite(self):
        report = timing_margins(
            config=CacheConfig(noise_sigma=0.0), samples=50
        )
        assert math.isinf(report["margin_sigma"])
        assert report["misclassified_rate"] == 0.0

    def test_render_mentions_margin_and_bins(self):
        text = render_timing_margins(timing_margins(samples=SAMPLES))
        assert "decision margin" in text
        assert "hits   |" in text
        assert "misses |" in text


class TestEvictionQuality:
    def test_builder_matches_ground_truth_on_clean_cache(self):
        report = eviction_quality(n_targets=3)
        assert report["found_fraction"] == 1.0
        assert report["minimal_fraction"] == 1.0
        assert report["verified_fraction"] == 1.0
        assert report["congruent_fraction"] == 1.0
        assert report["mean_set_size"] == report["ways"]
        assert report["mean_tests"] > 0

    def test_deterministic_given_seed(self):
        assert eviction_quality(n_targets=2, seed=9) == eviction_quality(
            n_targets=2, seed=9
        )


class TestSingleStepFidelity:
    def test_every_position_steps_once_with_the_right_page(self):
        report = single_step_fidelity(n=24, seed=3)
        assert report["steps"] == 24
        assert report["step_fidelity"] == 1.0
        assert report["ftab_faults"] == 24
        assert report["ftab_fault_fidelity"] == 1.0
        assert report["page_accuracy"] == 1.0
        assert report["probe_points"] == 24

    def test_deterministic_given_seed(self):
        assert single_step_fidelity(n=16, seed=5) == single_step_fidelity(
            n=16, seed=5
        )


class TestFingerprintConfusion:
    def test_small_round_beats_chance(self):
        report = fingerprint_confusion()
        assert report["test_accuracy"] > report["chance"]
        assert 0.0 <= report["diagonal_accuracy"] <= 1.0
        assert len(report["matrix"]) == report["n_files"]
        assert "file_0" in report["rendered"]
        # Same split, init and fit as the campaign experiment.
        from repro.core.zipchannel import run_fingerprint_experiment

        assert report["test_accuracy"] == run_fingerprint_experiment(
            corpus="lipsum", traces=8, epochs=12, seed=0, hidden=48
        )["test_accuracy"]


class TestChannelHealth:
    def test_bundles_all_probes(self):
        report = channel_health(samples=SAMPLES, n_targets=2, step_n=16)
        assert set(report) == {"timing", "eviction", "single_step"}
        assert report["timing"]["samples"] == SAMPLES

    def test_noise_sigma_override_reaches_the_probes(self):
        report = channel_health(
            samples=SAMPLES, n_targets=2, step_n=16, noise_sigma=30.0
        )
        assert report["timing"]["noise_sigma"] == 30.0
        assert report["timing"]["margin_sigma"] == pytest.approx(
            (report["timing"]["threshold"] - report["timing"]["hit_mean"])
            / 30.0,
            rel=0.5,
        )

    def test_render_covers_every_section(self):
        report = channel_health(samples=SAMPLES, n_targets=2, step_n=16)
        text = render_channel_health(report)
        for heading in ("## timing", "## eviction sets", "## single-step"):
            assert heading in text
