"""Oracle-channel diagnostics: per-character MI for the BREACH channel.

Answers the same question the gadget leakage meters answer for the
cache channels — *how many bits does one attack step actually move?* —
but for the compression-ratio oracle of :mod:`repro.oracle`.  The
estimator is deliberately the same plug-in mutual-information core as
:func:`repro.diag.leakage.leakage_from_lines`, so oracle and cache
numbers sit on one scale in the claims baseline.

Protocol: sample secrets whose first character cycles uniformly over a
small calibration charset, let a one-step attacker produce a point
estimate of that character through the sealed oracle (singleton
two-guess probes, argmin), and compute ``I(char; estimate)``.
Unmitigated, the estimate is exact and MI saturates at
``log2(len(charset))``; under an effective mitigation the estimate
decorrelates and MI falls toward the plug-in estimator's small-sample
bias floor.  The charset is kept small (4 symbols) precisely to keep
that bias floor well below the unmitigated signal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.diag.leakage import plugin_mutual_information

#: Calibration alphabet: 4 symbols keeps the plug-in MI bias floor
#: (~(|X|-1)(|Y|-1) / (2 n ln 2) bits) far below the 2-bit signal at
#: the sample counts the diag suite can afford.
ORACLE_MI_CHARSET = b"ak3z"


@dataclass
class OracleChannelDiag:
    """One oracle channel's measured quality."""

    observable: str
    mitigation: str
    n_samples: int
    capacity_bits: float   # log2(len(charset)): the saturation point
    mi_bits: float         # I(secret char; one-step estimate)
    recovered_fraction: float  # P(estimate == char)

    def metric_dict(self, prefix: str = "") -> dict:
        return {
            f"{prefix}mi_bits": self.mi_bits,
            f"{prefix}recovered_fraction": self.recovered_fraction,
            f"{prefix}capacity_bits": self.capacity_bits,
        }


def one_step_estimate(
    oracle,
    prefix: bytes,
    charset: bytes,
    rng: random.Random,
    reps: int = 2,
) -> int:
    """A single attack step's point estimate of the secret's first
    character: singleton two-guess probes over ``charset``, argmin mean
    delta.  No confirmation, no escalation — the diag wants the raw
    per-step channel, not the full attack's error correction."""
    from repro.recovery.oracle_recover import _random_pad, probe_pair

    best_c, best_delta = charset[0], float("inf")
    for c in charset:
        total = 0.0
        for _ in range(max(1, reps)):
            pad = _random_pad(rng)
            match, broken = probe_pair(prefix, b"", [c], pad)
            total += oracle.observe(match) - oracle.observe(broken)
        delta = total / max(1, reps)
        if delta < best_delta:
            best_delta, best_c = delta, c
    return best_c


def measure_oracle_channel(
    observable: str = "size",
    mitigation: str = "none",
    n_samples: int = 48,
    seed: int = 7,
    reps: int = 2,
    charset: bytes = ORACLE_MI_CHARSET,
) -> OracleChannelDiag:
    """Measure one (observable, mitigation) oracle channel.

    Per sample: a fresh HTTP victim whose secret starts with the
    cycled calibration character, a fresh sealed oracle, one one-step
    estimate.  Everything is seeded per sample, so the measurement is a
    deterministic function of ``(observable, mitigation, n_samples,
    seed, reps)``.
    """
    import math

    from repro.oracle import make_oracle, make_victim

    xs: list[int] = []
    ys: list[int] = []
    for i in range(n_samples):
        true_c = charset[i % len(charset)]
        victim = make_victim(
            "http",
            mitigation=mitigation,
            seed=seed * 1_000 + i,
            secret_len=6,
            filler_bytes=96,
        )
        # Pin the calibration character as the secret's first byte.
        victim.secret = bytes([true_c]) + victim.secret[1:]
        victim.generator.secret = victim.secret
        oracle = make_oracle(victim, observable, mitigation, seed=seed + i)
        rng = random.Random((seed << 16) ^ i)
        estimate = one_step_estimate(
            oracle, victim.known_prefix, charset, rng, reps=reps
        )
        xs.append(true_c)
        ys.append(estimate)

    hits = sum(1 for x, y in zip(xs, ys) if x == y)
    return OracleChannelDiag(
        observable=observable,
        mitigation=mitigation,
        n_samples=n_samples,
        capacity_bits=math.log2(len(charset)),
        mi_bits=plugin_mutual_information(xs, ys),
        recovered_fraction=hits / max(1, n_samples),
    )
