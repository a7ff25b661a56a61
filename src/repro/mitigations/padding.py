"""Output-shaping mitigations for the compression oracles.

The BREACH countermeasure family that gzhttp actually ships (disabled
by default — SNIPPETS.md snippet 1): instead of fixing the compressor,
obfuscate the *observable*.  Three shapes:

* :class:`RandomPadding` — add 0..``max_pad`` random bytes to every
  response size (gzhttp's random-jitter option).  Per-query
  independent noise: a single size delta no longer identifies the
  matching guess, so the attacker needs averaging the demo budgets
  don't allow.
* :class:`SizeQuantization` — round sizes up to the next multiple of
  ``quantum``.  Deterministic: all raw sizes within one quantum bucket
  become *indistinguishable* (asserted as a Hypothesis property), at a
  bounded worst-case overhead of ``quantum - 1`` bytes.
* :class:`LatencyJitter` — add half-normal noise to compression
  wall-time, drowning the Schwarzl-style timing distinguisher.

Each mitigation transforms only the sealed observable; the compressed
stream itself is untouched (contrast :mod:`repro.mitigations.debreach`,
which changes what the compressor may match).  All randomness comes
from the RNG the oracle owns, so mitigated oracles stay deterministic
functions of ``(secret, input, seed, query index)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class OracleMitigation:
    """Base class: the identity transform (no mitigation)."""

    name = "none"

    def transform_size(self, size: int, rng: random.Random) -> int:
        """Map a true container size to the size the attacker sees."""
        return size

    def transform_time(self, t: float, rng: random.Random) -> float:
        """Map a true wall-time to the latency the attacker sees."""
        return t


@dataclass(frozen=True)
class RandomPadding(OracleMitigation):
    """gzhttp-style random padding: size += uniform 0..``max_pad``."""

    max_pad: int = 32
    name = "padding"

    def transform_size(self, size: int, rng: random.Random) -> int:
        return size + rng.randrange(self.max_pad + 1)


@dataclass(frozen=True)
class SizeQuantization(OracleMitigation):
    """Round sizes up to the next multiple of ``quantum``."""

    quantum: int = 64
    name = "quantize"

    def transform_size(self, size: int, rng: random.Random) -> int:
        del rng  # deterministic by design
        return -(-size // self.quantum) * self.quantum


@dataclass(frozen=True)
class LatencyJitter(OracleMitigation):
    """Half-normal latency noise: t += |N(0, sigma)| ticks."""

    sigma: float = 40.0
    name = "jitter"

    def transform_time(self, t: float, rng: random.Random) -> float:
        return t + abs(rng.gauss(0.0, self.sigma))


_SHAPES = {
    "none": OracleMitigation,
    "padding": RandomPadding,
    "quantize": SizeQuantization,
    "jitter": LatencyJitter,
    # Debreach hardens the compressor itself; at the observable layer it
    # is the identity.
    "debreach": OracleMitigation,
}

#: Mitigation names accepted by the oracle factories and the CLI.
#: ``debreach`` is listed for discoverability but constructed by the
#: victim factory (it changes compression, not the observable).
ORACLE_MITIGATIONS = tuple(_SHAPES)


def get_oracle_mitigation(name: str, **params) -> OracleMitigation:
    """Construct an observable-shaping mitigation by name.

    ``params`` sets the knob of the chosen shape (``max_pad``,
    ``quantum``, ``sigma``) to a non-negative number (``quantum``:
    positive); an unknown name, an unknown knob or a bad value raises a
    ``ValueError`` that names what is accepted.
    """
    shape = _SHAPES.get(name)
    if shape is None:
        raise ValueError(
            f"unknown oracle mitigation {name!r}; choose from "
            f"{ORACLE_MITIGATIONS}"
        )
    knobs = [f.name for f in fields(shape)]
    for knob, value in params.items():
        if knob not in knobs:
            accepted = f"knob {knobs[0]!r}" if knobs else "no knob"
            raise ValueError(f"{name} takes {accepted}, not {knob!r}")
        default = getattr(shape, knob)
        kind = int if isinstance(default, int) else (int, float)
        least = 1 if knob == "quantum" else 0
        if isinstance(value, bool) or not isinstance(value, kind) or value < least:
            raise ValueError(
                f"{name} knob {knob!r} must be a{' whole' if kind is int else ''} "
                f"number >= {least}, got {value!r}"
            )
    return shape(**params)
