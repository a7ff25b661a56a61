"""The leakage drift gate: fail CI when channel quality regresses.

The same :mod:`repro.gate` engine as ``repro perf compare``, fed with
*leakage* metrics instead of timings: :func:`collect_diag_metrics` runs
the deterministic diagnostics suite — the three gadgets' leakage
meters, the mitigation before/after loop, and the channel-health probes
— into one flat ``{metric: value}`` dict, :func:`metric_direction`
gives each metric its gate direction, and ``repro diag compare`` checks
the result against the committed ``benchmarks/diag_baseline.json``:

* ``higher`` (bit accuracy, mutual information, eviction quality,
  fidelity) fails when ``current < baseline * (1 - tolerance)``;
* ``lower`` (misclassification rate, leakage left after a mitigation)
  fails when ``current > baseline * (1 + tolerance)``;
* ``info`` metrics are recorded but never gate.

Both gated directions get :data:`ABS_EPSILON` of absolute slack, so a
0.0 baseline doesn't make any nonzero value a failure.  Every probe is
seeded, so on one machine the collected numbers are exactly
reproducible; the tolerance absorbs the last-ulp libm differences a
different platform may introduce into the timing draws.
"""

from __future__ import annotations

from typing import Optional

DEFAULT_TOLERANCE = 0.05
# Absolute slack on gated metrics with ~0 baselines.
ABS_EPSILON = 0.005

DEFAULT_PARAMS = {
    "size": 120,
    "seed": 7,
    "samples": 1500,
    "n_targets": 4,
    "step_n": 32,
    "oracle_samples": 48,
}

# Direction per metric suffix (the part after "<gadget>." / the probe
# prefix).  Anything not matched here defaults to "info".
_HIGHER = (
    "byte_accuracy",
    "bit_accuracy",
    "bit_accuracy_min",
    "mi_bits_per_byte",
    "mi_bits",
    "bits_per_observation",
    "recovered_fraction",
    "exact_found",
    "timing.margin_sigma",
    "timing.empirical_separation",
    "eviction.found_fraction",
    "eviction.minimal_fraction",
    "eviction.verified_fraction",
    "eviction.congruent_fraction",
    "single_step.step_fidelity",
    "single_step.ftab_fault_fidelity",
    "single_step.page_accuracy",
    "confusion.test_accuracy",
    "confusion.diagonal_accuracy",
    "output_equal",
    "decodable",
    "guard_ok",
)
# Mitigated rows are checked first: under an effective mitigation the
# channel must stay *closed*, so leakage going up is the regression
# (e.g. ``oracle.size.padding.mi_bits``, or every ``after.*`` leakage
# metric of the ``repro mitigate`` loop — those must stay ~0 even
# though their un-prefixed suffixes are higher-is-better on the
# vulnerable kernel).
_LOWER = (
    "timing.misclassified_rate",
    "padding.mi_bits",
    "padding.recovered_fraction",
    "quantize.mi_bits",
    "quantize.recovered_fraction",
    "jitter.mi_bits",
    "jitter.recovered_fraction",
    "debreach.mi_bits",
    "debreach.recovered_fraction",
    "after.byte_accuracy",
    "after.bit_accuracy",
    "after.bit_accuracy_min",
    "after.mi_bits_per_byte",
    "after.bits_per_observation",
    "after.recovered_fraction",
    "after.exact_found",
    "residual_gadgets",
    "leftover_gadgets",
)


def metric_direction(name: str) -> str:
    """``higher`` / ``lower`` / ``info`` for one metric name."""
    for suffix in _LOWER:
        if name.endswith(suffix):
            return "lower"
    for suffix in _HIGHER:
        if name.endswith(suffix):
            return "higher"
    return "info"


def collect_diag_metrics(
    size: int = DEFAULT_PARAMS["size"],
    seed: int = DEFAULT_PARAMS["seed"],
    samples: int = DEFAULT_PARAMS["samples"],
    n_targets: int = DEFAULT_PARAMS["n_targets"],
    step_n: int = DEFAULT_PARAMS["step_n"],
    noise_sigma: Optional[float] = None,
    include_confusion: bool = False,
    oracle_samples: int = DEFAULT_PARAMS["oracle_samples"],
) -> dict:
    """Run the full diagnostics suite into one flat metrics dict.

    ``noise_sigma`` overrides the cache noise used by the channel
    probes — bumping it is the standard injected-regression drill for
    the gate.
    """
    from repro.diag.channel import channel_health
    from repro.diag.leakage import survey_leakage
    from repro.diag.oracle import oracle_channel_metrics

    metrics: dict[str, float] = {}
    for target, diag in survey_leakage(size, seed).items():
        metrics.update(diag.metric_dict(prefix=f"{target}."))

    # The mitigation loop on the cheapest target: the gate pins that
    # the synthesised patch keeps closing the channel (``after.*``
    # leakage ~0, zero residual gadgets) and stays output-preserving.
    from repro.mitigations.verify import verify_mitigation

    mit = verify_mitigation("lzw", size=size, seed=seed)
    for key, value in mit.metric_dict().items():
        metrics[f"mitigate.lzw.{key}"] = float(value)

    health = channel_health(
        samples=samples,
        n_targets=n_targets,
        step_n=step_n,
        noise_sigma=noise_sigma,
        include_confusion=include_confusion,
    )
    timing = health["timing"]
    for key in (
        "margin_sigma",
        "empirical_separation",
        "misclassified_rate",
        "hit_mean",
        "miss_mean",
        "noise_sigma",
    ):
        metrics[f"timing.{key}"] = float(timing[key])
    for key, value in health["eviction"].items():
        metrics[f"eviction.{key}"] = float(value)
    for key, value in health["single_step"].items():
        metrics[f"single_step.{key}"] = float(value)
    if include_confusion:
        conf = health["confusion"]
        metrics["confusion.test_accuracy"] = conf["test_accuracy"]
        metrics["confusion.diagonal_accuracy"] = conf["diagonal_accuracy"]
    if oracle_samples > 0:
        metrics.update(
            oracle_channel_metrics(seed=seed, n_samples=oracle_samples)
        )
    return metrics
