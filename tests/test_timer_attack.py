"""Tests for the timer-stepping baseline attack."""

import hashlib

import pytest

from repro.core.zipchannel import AttackConfig, SgxBzip2Attack
from repro.core.zipchannel.timer_attack import TimerSgxBzip2Attack
from repro.sidechannel.timer_step import TimerStepper
from repro.workloads import random_bytes


class TestTimerStepper:
    def test_fires_about_every_period(self):
        fired = []
        stepper = TimerStepper(period=10, jitter=0, on_interrupt=lambda: fired.append(1))
        for _ in range(100):
            stepper.on_victim_access(0, "read")
        assert len(fired) == 10

    def test_jitter_varies_intervals(self):
        gaps = []
        count = [0]

        def record():
            gaps.append(count[0])
            count[0] = 0

        stepper = TimerStepper(period=10, jitter=4, on_interrupt=record, seed=3)
        for _ in range(500):
            count[0] += 1
            stepper.on_victim_access(0, "read")
        assert min(gaps) < 10 < max(gaps)
        assert len(set(gaps)) > 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TimerStepper(period=0, jitter=0, on_interrupt=lambda: None)
        with pytest.raises(ValueError):
            TimerStepper(period=5, jitter=5, on_interrupt=lambda: None)


class TestTimerAttack:
    def test_recovers_something_but_less_than_mprotect(self):
        secret = random_bytes(100, seed=41)
        timer = TimerSgxBzip2Attack(secret).run()
        mprotect = SgxBzip2Attack(secret, AttackConfig()).run()
        # Better than guessing, clearly worse than controlled-channel.
        assert 0.5 < timer.bit_accuracy < mprotect.bit_accuracy
        assert timer.observations_empty > 0

    def test_interrupt_count_tracks_accesses(self):
        secret = random_bytes(60, seed=42)
        outcome = TimerSgxBzip2Attack(secret, period=3, jitter=1).run()
        # ~3 accesses per iteration, one interrupt per ~period accesses.
        assert 40 <= outcome.interrupts <= 80

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            TimerSgxBzip2Attack(b"")

    def test_summary_smoke(self):
        outcome = TimerSgxBzip2Attack(random_bytes(40, seed=4)).run()
        assert "timer-stepping attack" in outcome.summary()


class TestExactState:
    """The timer attack's final state, pinned by digest.  Its OS
    pollution walks as a cache working set, which must leave every
    stamp where the per-address loop left it; its 4,097-line ftab sweep
    repeats attacker lines (ftab lines that share a location), so it
    walks the per-address loop."""

    def test_state_matches_recorded(self):
        attack = TimerSgxBzip2Attack(random_bytes(100, seed=5))
        attack.run()
        cache, space = attack.cache, attack.space
        h = hashlib.sha256()
        h.update(cache._tags.tobytes())
        h.update(cache._stamps.tobytes())
        h.update(repr((cache._zi, cache._rng.getstate())).encode())
        h.update(repr((attack._windows, sorted(attack._known_noisy))).encode())
        pages = sorted(
            (vpn, entry.frame, entry.perms.value)
            for vpn, entry in space._pages.items()
        )
        h.update(repr(pages).encode())
        assert h.hexdigest() == (
            "8d6a434dc746011131a8cd729aa4b2fcf246487ec222a4ca69286fd483a97c21"
        )
