"""Per-gadget leakage metering: how many input bits does each survey
gadget actually deliver through the cache-line channel?

For each of the paper's three gadgets (zlib ``head[ins_h]``, Sec. IV-B;
LZW ``htab[hp]``, IV-C; bzip2 ``ftab[j]++``, IV-D) this module turns a
cache-line observation stream into:

* a **per-bit accuracy map** — for every bit 0..7, the fraction of
  input positions whose bit the decoder recovered correctly (a bit at
  an unrecovered position counts as wrong), plus a positional heatmap
  in the style of the paper's Figs. 2-4;
* the **empirical mutual information** ``I(X; X̂)`` between the true
  input byte and the decoder's point estimate (plug-in estimator over
  the joint histogram) — the end-to-end "bits extracted per input
  byte", also normalised to bits per cache-line observation.

The same :func:`leakage_from_lines` core consumes a live run (via
:func:`measure_gadget_live`) or a stored ``.trc`` trace (via
:func:`measure_gadget_from_store`); both take their observation
filter and decoder from :mod:`repro.recovery.survey`, so the two paths
agree **bit-exactly** by construction — asserted in
``tests/test_diag_leakage.py``.

Estimator caveat: the plug-in MI estimator is biased upward for small
sample counts relative to the alphabet (n positions vs up to 256 x 257
joint cells).  The numbers here are comparable *between runs of the
same size* — which is what the claims gate needs — not absolute channel
capacities; see ``docs/diagnostics.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.recovery import survey

# The survey targets under the name ``repro.diag`` exports.
GADGET_TARGETS = survey.SURVEY_TARGETS

# Shade ramp for heatmap cells: accuracy 0.0 .. 1.0 maps left to right.
HEAT_RAMP = " .:-=+*#%@"
HEAT_COLUMNS = 48

# Sentinel symbol for "decoder produced no estimate" in the MI joint
# histogram (must be outside the 0..255 byte alphabet).
_NO_ESTIMATE = -1


def plugin_mutual_information(
    xs: Sequence[int], ys: Sequence[int]
) -> float:
    """Plug-in (maximum-likelihood) estimate of ``I(X; Y)`` in bits.

    Pure integer counting plus ``math.log2`` over exact rationals, so
    identical inputs give identical floats on both the live and stored
    paths.
    """
    n = len(xs)
    if n == 0 or n != len(ys):
        return 0.0
    joint: dict[tuple[int, int], int] = {}
    px: dict[int, int] = {}
    py: dict[int, int] = {}
    for x, y in zip(xs, ys):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        px[x] = px.get(x, 0) + 1
        py[y] = py.get(y, 0) + 1
    mi = 0.0
    for (x, y), c in sorted(joint.items()):
        mi += (c / n) * math.log2(c * n / (px[x] * py[y]))
    return max(0.0, mi)


@dataclass
class GadgetLeakage:
    """Leakage diagnostics for one gadget on one input."""

    target: str
    size: int
    input_kind: str
    input_seed: int
    n_observations: int
    recovered_fraction: float  # positions with any estimate
    byte_accuracy: float  # exact-byte point-estimate accuracy
    bit_accuracy: float  # mean over the 8 per-bit accuracies
    per_bit_accuracy: list[float]  # index = bit position 0 (lsb) .. 7
    mi_bits_per_byte: float  # plug-in I(truth; estimate)
    input_entropy_bits: float  # plug-in H(truth), the MI ceiling
    bits_per_observation: float  # total MI / cache-line observations
    extras: dict = field(default_factory=dict)  # per-target metrics
    bit_matrix: list[list[int]] = field(default_factory=list)
    # bit_matrix[b][i] = 1 iff bit b of position i was recovered
    # correctly; feeds the heatmap and is part of the bit-exact
    # live/stored equality contract.

    def to_dict(self) -> dict:
        """JSON-ready payload (used verbatim in equality assertions)."""
        return {
            "target": self.target,
            "size": self.size,
            "input_kind": self.input_kind,
            "input_seed": self.input_seed,
            "n_observations": self.n_observations,
            "recovered_fraction": self.recovered_fraction,
            "byte_accuracy": self.byte_accuracy,
            "bit_accuracy": self.bit_accuracy,
            "per_bit_accuracy": list(self.per_bit_accuracy),
            "mi_bits_per_byte": self.mi_bits_per_byte,
            "input_entropy_bits": self.input_entropy_bits,
            "bits_per_observation": self.bits_per_observation,
            "extras": dict(self.extras),
            "bit_matrix": [list(row) for row in self.bit_matrix],
        }

    def metric_dict(self, prefix: str = "") -> dict:
        """Flat numeric metrics (for campaigns and the LEAK claim)."""
        out = {
            f"{prefix}byte_accuracy": self.byte_accuracy,
            f"{prefix}bit_accuracy": self.bit_accuracy,
            f"{prefix}bit_accuracy_min": min(self.per_bit_accuracy),
            f"{prefix}mi_bits_per_byte": self.mi_bits_per_byte,
            f"{prefix}bits_per_observation": self.bits_per_observation,
            f"{prefix}recovered_fraction": self.recovered_fraction,
            f"{prefix}n_observations": self.n_observations,
        }
        for key, value in self.extras.items():
            if isinstance(value, bool):
                out[f"{prefix}{key}"] = int(value)
            elif isinstance(value, (int, float)):
                out[f"{prefix}{key}"] = value
        return out


def leakage_from_lines(
    target: str,
    lines: list[int],
    bases: dict,
    size: int,
    input_kind: str,
    input_seed: int,
) -> GadgetLeakage:
    """The shared metering core: decode ``lines`` with the target's
    Section IV decoder and score every bit against the regenerated
    input.  Both the live and stored paths funnel through here, which
    is what makes them bit-exact."""
    from repro.campaign.experiments import make_input

    truth = make_input(input_kind, size, input_seed)
    decoded = survey.decode(target, lines, bases, size, truth)
    estimates = decoded.estimates
    n = len(truth)

    bit_matrix = [[0] * n for _ in range(8)]
    recovered = 0
    exact = 0
    for i, (est, true_byte) in enumerate(zip(estimates, truth)):
        if est is None:
            continue
        recovered += 1
        if est == true_byte:
            exact += 1
        matching = ~(est ^ true_byte)
        for b in range(8):
            bit_matrix[b][i] = (matching >> b) & 1
    per_bit = [sum(row) / n if n else 0.0 for row in bit_matrix]

    mi_symbols = [
        _NO_ESTIMATE if est is None else est for est in estimates
    ]
    mi = plugin_mutual_information(list(truth), mi_symbols)
    entropy = plugin_mutual_information(list(truth), list(truth))
    n_obs = len(lines)
    return GadgetLeakage(
        target=target,
        size=size,
        input_kind=input_kind,
        input_seed=input_seed,
        n_observations=n_obs,
        recovered_fraction=recovered / n if n else 0.0,
        byte_accuracy=exact / n if n else 0.0,
        bit_accuracy=sum(per_bit) / 8.0,
        per_bit_accuracy=per_bit,
        mi_bits_per_byte=mi,
        input_entropy_bits=entropy,
        bits_per_observation=(mi * n / n_obs) if n_obs else 0.0,
        extras=decoded.extras,
        bit_matrix=bit_matrix,
    )


def measure_gadget_live(
    target: str,
    size: int,
    seed: int,
    input_kind: Optional[str] = None,
) -> GadgetLeakage:
    """Run the gadget under tracing now and meter its leakage."""
    from repro import obs
    from repro.campaign.experiments import make_input

    input_kind = input_kind or survey.input_kind(target)
    data = make_input(input_kind, size, seed)
    with obs.span("diag.leakage.live", target=target, size=size):
        lines, bases = survey.observe(target, data)
        return leakage_from_lines(
            target, lines, bases, size, input_kind, seed
        )


def measure_gadget_from_store(store, trace_id: str) -> GadgetLeakage:
    """Meter leakage from a stored memory trace (no victim re-run).

    Reads the target, input provenance, and array bases from the trace
    metadata written by :func:`repro.traces.capture.capture_memory_trace`.
    """
    from repro import obs
    from repro.traces.format import SPECIES_MEMORY
    from repro.traces.replay import target_lines

    entry = store.get(trace_id)
    if entry.species != SPECIES_MEMORY:
        raise ValueError(
            f"trace {trace_id!r} is a {entry.species!r} trace; leakage "
            f"metering needs {SPECIES_MEMORY!r}"
        )
    meta = entry.meta
    target = meta["target"]
    with obs.span("diag.leakage.stored", target=target, trace_id=trace_id):
        # Columnar decode, same filter as the live path.
        lines = target_lines(store, trace_id, target).tolist()
        return leakage_from_lines(
            target,
            lines,
            meta["bases"],
            int(meta["size"]),
            meta["input_kind"],
            int(meta["input_seed"]),
        )


def survey_leakage(size: int, seed: int) -> dict[str, GadgetLeakage]:
    """Leakage diagnostics for all three gadgets, live, with the survey
    seed convention so results line up with ``survey_recovery``
    campaigns and captured survey sweeps."""
    return {
        target: measure_gadget_live(
            target, size, survey.input_seed(target, seed)
        )
        for target in GADGET_TARGETS
    }


def survey_leakage_from_store(
    store, size: int, sweep_seed: int, prefix: str = "survey"
) -> dict[str, GadgetLeakage]:
    """Leakage diagnostics for a captured survey sweep (the traces
    written by ``capture_survey_traces(store, size, sweep_seed)``)."""
    return {
        target: measure_gadget_from_store(
            store, survey.trace_id(target, size, sweep_seed, prefix)
        )
        for target in GADGET_TARGETS
    }


# -- rendering ---------------------------------------------------------
def render_heatmap(diag: GadgetLeakage, columns: int = HEAT_COLUMNS) -> str:
    """Figs. 2-4-style ASCII heatmap: bit rows (msb on top) x input
    position, cell shade = fraction of that bucket's positions whose
    bit was recovered."""
    n = diag.size
    if n == 0:
        return "(empty input)"
    columns = max(1, min(columns, n))
    lines = [
        f"bit accuracy map — {diag.target}, {n} bytes "
        f"({diag.input_kind}), shade: '{HEAT_RAMP[0]}'=0 "
        f"'{HEAT_RAMP[-1]}'=1"
    ]
    top = len(HEAT_RAMP) - 1
    for b in range(7, -1, -1):
        row = diag.bit_matrix[b]
        cells = []
        for c in range(columns):
            lo = c * n // columns
            hi = max(lo + 1, (c + 1) * n // columns)
            frac = sum(row[lo:hi]) / (hi - lo)
            cells.append(HEAT_RAMP[round(frac * top)])
        lines.append(
            f"bit {b} |{''.join(cells)}| {diag.per_bit_accuracy[b]*100:6.2f}%"
        )
    lines.append(f"       +{'-' * columns}+")
    lines.append(f"        position 0 .. {n - 1}")
    return "\n".join(lines)


def render_leakage(diag: GadgetLeakage) -> str:
    """One gadget's full diagnostics block: summary line + heatmap."""
    extras = " ".join(
        f"{k}={v}" for k, v in sorted(diag.extras.items())
    )
    lines = [
        f"## {diag.target}",
        f"observations: {diag.n_observations} cache lines  "
        f"recovered: {diag.recovered_fraction*100:.1f}% of positions",
        f"byte accuracy {diag.byte_accuracy*100:.2f}%  "
        f"bit accuracy {diag.bit_accuracy*100:.2f}%",
        f"mutual information {diag.mi_bits_per_byte:.3f} bits/byte "
        f"(input entropy {diag.input_entropy_bits:.3f})  "
        f"{diag.bits_per_observation:.4f} bits/observation",
    ]
    if extras:
        lines.append(extras)
    lines.append(render_heatmap(diag))
    return "\n".join(lines)


def render_survey_leakage(diags: dict[str, GadgetLeakage]) -> str:
    """The multi-gadget ``repro diag report`` body."""
    blocks = [render_leakage(diags[t]) for t in GADGET_TARGETS if t in diags]
    return "\n\n".join(blocks)
