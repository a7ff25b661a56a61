"""Channel-health probes: is the physical side channel in good shape?

Leakage metering (:mod:`repro.diag.leakage`) scores the *idealised*
gadget channel; this module probes the simulated *physical* layers the
end-to-end attacks actually cross, each with a dedicated, freshly
seeded instance so probing never perturbs an experiment in flight:

* :func:`timing_margins` — hit/miss latency separation from
  :mod:`repro.cache.model`'s noisy timer: empirical means, the decision
  margin in noise-σ units, the misclassification rate at the midpoint
  threshold, and fixed-bin latency histograms for rendering;
* :func:`eviction_quality` — how well
  :class:`~repro.sidechannel.eviction_sets.EvictionSetBuilder` does
  against the model's ground truth (minimal-set rate, congruence of
  the found lines, verified eviction, group-testing cost);
* :func:`single_step_fidelity` — does the Fig. 5 mprotect state
  machine observe exactly one ftab access per input position, and are
  the faulting pages the ones the true ``j`` indices predict;
* :func:`fingerprint_confusion` — a small Section VI train/test round
  rendered as a confusion matrix via :mod:`repro.classify.metrics`.

Everything is deterministic given its seed arguments, which is what
lets ``repro diag compare`` gate these numbers against a committed
baseline.
"""

from __future__ import annotations

import random
from typing import Optional

from repro import obs
from repro.cache.model import LINE_SIZE, Cache, CacheConfig

HIST_BINS = 30


def _fixed_bin_histogram(
    values: list[float], lo: float, hi: float, bins: int = HIST_BINS
) -> list[int]:
    counts = [0] * bins
    span = hi - lo
    if span <= 0:
        counts[0] = len(values)
        return counts
    for v in values:
        idx = int((v - lo) / span * bins)
        counts[min(max(idx, 0), bins - 1)] += 1
    return counts


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    if not n:
        return 0.0, 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var ** 0.5


def timing_margins(
    config: Optional[CacheConfig] = None,
    samples: int = 1500,
) -> dict:
    """Empirical hit/miss timing separation on a dedicated cache.

    Each sample touches a distinct cold line (miss latency) then
    touches it again (hit latency).  The decision threshold is the
    hit/miss midpoint — the same default
    :class:`~repro.sidechannel.eviction_sets.EvictionSetBuilder` uses —
    and the margin is its distance to either true latency in units of
    the timer's noise σ.
    """
    cfg = config or CacheConfig()
    cache = Cache(cfg)
    base = 0x9_0000_0000
    hits: list[float] = []
    misses: list[float] = []
    with obs.span("diag.timing_margins", samples=samples):
        for i in range(samples):
            addr = base + i * LINE_SIZE
            misses.append(cache.access(addr).latency)
            hits.append(cache.access(addr).latency)
    threshold = (cfg.hit_latency + cfg.miss_latency) / 2.0
    hit_mean, hit_std = _mean_std(hits)
    miss_mean, miss_std = _mean_std(misses)
    misclassified = sum(1 for v in hits if v >= threshold) + sum(
        1 for v in misses if v < threshold
    )
    half_gap = (cfg.miss_latency - cfg.hit_latency) / 2.0
    margin_sigma = (
        half_gap / cfg.noise_sigma if cfg.noise_sigma > 0 else float("inf")
    )
    lo = min(hits + misses)
    hi = max(hits + misses)
    return {
        "samples": samples,
        "hit_mean": hit_mean,
        "hit_std": hit_std,
        "miss_mean": miss_mean,
        "miss_std": miss_std,
        "threshold": threshold,
        "margin_sigma": margin_sigma,
        "empirical_separation": (
            (miss_mean - hit_mean) / ((hit_std + miss_std) / 2.0)
            if (hit_std + miss_std) > 0
            else float("inf")
        ),
        "misclassified_rate": misclassified / (2 * samples),
        "noise_sigma": cfg.noise_sigma,
        "histogram": {
            "lo": lo,
            "hi": hi,
            "hits": _fixed_bin_histogram(hits, lo, hi),
            "misses": _fixed_bin_histogram(misses, lo, hi),
        },
    }


def render_timing_margins(report: dict, width: int = 60) -> str:
    """Two-distribution ASCII histogram plus the margin summary."""
    hist = report["histogram"]
    peak = max(max(hist["hits"], default=1), max(hist["misses"], default=1))
    peak = max(peak, 1)
    bins = len(hist["hits"])
    lines = [
        f"timing margins: hit {report['hit_mean']:.1f}±"
        f"{report['hit_std']:.1f}  miss {report['miss_mean']:.1f}±"
        f"{report['miss_std']:.1f}  threshold {report['threshold']:.1f}",
        f"decision margin {report['margin_sigma']:.2f}σ  "
        f"empirical separation {report['empirical_separation']:.2f}σ  "
        f"misclassified {report['misclassified_rate']*100:.3f}%",
    ]
    for name in ("hits", "misses"):
        counts = hist[name]
        dense = "".join(
            " ▁▂▃▄▅▆▇█"[min(8, round(c / peak * 8))] for c in counts
        )
        lines.append(f"{name:<7}|{dense}|")
    lines.append(
        f"       {hist['lo']:.0f} .. {hist['hi']:.0f} cycles "
        f"({bins} bins)"
    )
    return "\n".join(lines)


def eviction_quality(
    config: Optional[CacheConfig] = None,
    n_targets: int = 4,
    seed: int = 5,
) -> dict:
    """Score the group-testing eviction-set builder against the model.

    For each (deterministically drawn) target address the builder
    reduces its congruent pool to a minimal set; the model's
    :meth:`~repro.cache.model.Cache.location` gives ground truth for
    how many found lines are actually congruent, and a final
    :meth:`~repro.sidechannel.eviction_sets.EvictionSetBuilder.evicts`
    call verifies the set still evicts.
    """
    from repro.sidechannel.eviction_sets import (
        EvictionSetBuilder,
        EvictionSetError,
    )

    cfg = config or CacheConfig()
    cache = Cache(cfg)
    builder = EvictionSetBuilder(cache)
    rng = random.Random(seed)
    found = 0
    minimal = 0
    verified = 0
    congruent_lines = 0
    total_lines = 0
    sizes: list[int] = []
    tests: list[int] = []
    with obs.span("diag.eviction_quality", targets=n_targets):
        for _ in range(n_targets):
            target = 0x1_0000_0000 + rng.randrange(1 << 14) * LINE_SIZE
            before = builder.tests_performed
            try:
                es = builder.find(target)
            except EvictionSetError:
                tests.append(builder.tests_performed - before)
                continue
            tests.append(builder.tests_performed - before)
            found += 1
            sizes.append(len(es))
            if len(es) == cfg.ways:
                minimal += 1
            if builder.evicts(target, es):
                verified += 1
            truth = cache.location(target)
            congruent_lines += sum(
                1 for addr in es if cache.location(addr) == truth
            )
            total_lines += len(es)
    return {
        "n_targets": n_targets,
        "found_fraction": found / n_targets if n_targets else 0.0,
        "minimal_fraction": minimal / n_targets if n_targets else 0.0,
        "verified_fraction": verified / n_targets if n_targets else 0.0,
        "congruent_fraction": (
            congruent_lines / total_lines if total_lines else 0.0
        ),
        "mean_set_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "ways": cfg.ways,
        "mean_tests": sum(tests) / len(tests) if tests else 0.0,
    }


def single_step_fidelity(n: int = 32, seed: int = 3) -> dict:
    """Fidelity of the Fig. 5 single-stepping state machine.

    Builds a dedicated enclave, runs the bzip2 ``histogram`` kernel
    under the mprotect stepper, and checks three invariants: one step
    per input position, one ftab fault per position, and each faulting
    page equal to the page the true ``j = (block[i]<<8) | block[i+1]``
    index predicts (in the kernel's reverse iteration order).
    """
    from repro.compression.bzip2.blocksort import histogram
    from repro.memsys import AddressSpace
    from repro.sgx import Enclave
    from repro.sidechannel import SingleStepper
    from repro.workloads import random_bytes

    space = AddressSpace()
    cache = Cache(CacheConfig(noise_sigma=0.0))
    enclave = Enclave(space, cache)
    quadrant = enclave.array("quadrant", n, elem_size=2)
    block = enclave.array("block", n, elem_size=1)
    data = random_bytes(n, seed=seed)
    block.load(list(data))
    ftab = enclave.array("ftab", 65537, elem_size=4, misalign=48)

    fault_pages: list[int] = []
    probes = [0]
    stepper = SingleStepper(
        space,
        quadrant,
        block,
        ftab,
        before_ftab_access=fault_pages.append,
        probe_point=lambda: probes.__setitem__(0, probes[0] + 1),
    )
    enclave.fault_handler = stepper.handle_fault
    with obs.span("diag.single_step", n=n):
        stepper.arm()
        histogram(enclave, block, n, ftab=ftab, quadrant=quadrant)
        stepper.disarm()

    # Expected fault pages, in the kernel's i = n-1 .. 0 order.
    expected = []
    for i in range(n - 1, -1, -1):
        j = (data[i] << 8) | data[(i + 1) % n]
        expected.append((ftab.base + 4 * j) & ~0xFFF)
    page_hits = sum(1 for got, want in zip(fault_pages, expected) if got == want)
    return {
        "n": n,
        "steps": stepper.steps,
        "step_fidelity": stepper.steps / n if n else 0.0,
        "ftab_faults": len(fault_pages),
        "ftab_fault_fidelity": len(fault_pages) / n if n else 0.0,
        "probe_points": probes[0],
        "page_accuracy": (
            page_hits / len(expected) if expected else 0.0
        ),
    }


def fingerprint_confusion(
    corpus: str = "lipsum",
    traces: int = 8,
    epochs: int = 12,
    seed: int = 0,
    hidden: int = 48,
) -> dict:
    """A small Section VI fingerprint round with its confusion matrix.

    Returns test accuracy, the confusion matrix (column-normalised, as
    :func:`repro.classify.metrics.confusion_matrix` defines it), its
    diagonal mean, and a rendered table.  Deliberately small defaults —
    this is a health probe, not the Fig. 7 experiment.
    """
    from repro.classify import confusion_matrix, render_confusion
    from repro.classify.metrics import diagonal_accuracy
    from repro.core.zipchannel.fingerprint import (
        build_dataset,
        train_classifier,
    )
    from repro.workloads import fingerprint_corpus

    files = list(fingerprint_corpus(corpus).values())
    names = [f"file_{i}" for i in range(len(files))]
    with obs.span(
        "diag.fingerprint_confusion", corpus=corpus, traces=traces
    ):
        x, y, _ = build_dataset(files, traces_per_file=traces, seed=seed)
        clf, test, metrics = train_classifier(
            x, y, len(files), epochs, seed, hidden
        )
        matrix = confusion_matrix(
            test[1], clf.predict(test[0]), len(files)
        )
    return {
        "corpus": corpus,
        "n_files": len(files),
        "chance": 1.0 / len(files),
        "test_accuracy": metrics["test_accuracy"],
        "diagonal_accuracy": float(diagonal_accuracy(matrix).mean()),
        "matrix": matrix.tolist(),
        "rendered": render_confusion(matrix, names),
    }


def channel_health(
    samples: int = 1500,
    n_targets: int = 4,
    step_n: int = 32,
    noise_sigma: Optional[float] = None,
    include_confusion: bool = False,
) -> dict:
    """Run every probe; ``noise_sigma`` overrides the cache config used
    by the timing/eviction probes (the CHANNEL claim's noise drill bumps
    it to inject a regression)."""
    cfg = (
        CacheConfig(noise_sigma=noise_sigma)
        if noise_sigma is not None
        else CacheConfig()
    )
    report = {
        "timing": timing_margins(config=cfg, samples=samples),
        "eviction": eviction_quality(config=cfg, n_targets=n_targets),
        "single_step": single_step_fidelity(n=step_n),
    }
    if include_confusion:
        report["confusion"] = fingerprint_confusion()
    return report


def render_channel_health(report: dict) -> str:
    """The ``repro diag channel`` text output."""
    lines = ["# channel health", "", "## timing"]
    lines.append(render_timing_margins(report["timing"]))
    ev = report["eviction"]
    lines += [
        "",
        "## eviction sets",
        f"found {ev['found_fraction']*100:.0f}%  minimal "
        f"{ev['minimal_fraction']*100:.0f}% (ways={ev['ways']})  "
        f"verified {ev['verified_fraction']*100:.0f}%",
        f"congruent lines {ev['congruent_fraction']*100:.1f}%  "
        f"mean set size {ev['mean_set_size']:.1f}  "
        f"mean group tests {ev['mean_tests']:.1f}",
    ]
    ss = report["single_step"]
    lines += [
        "",
        "## single-step",
        f"steps {ss['steps']}/{ss['n']} "
        f"(fidelity {ss['step_fidelity']*100:.1f}%)  "
        f"ftab faults {ss['ftab_faults']} "
        f"({ss['ftab_fault_fidelity']*100:.1f}%)  "
        f"fault-page accuracy {ss['page_accuracy']*100:.1f}%",
    ]
    if "confusion" in report:
        conf = report["confusion"]
        lines += [
            "",
            "## fingerprint confusion",
            f"test accuracy {conf['test_accuracy']*100:.1f}% "
            f"(chance {conf['chance']*100:.1f}%)  diagonal "
            f"{conf['diagonal_accuracy']*100:.1f}%",
            conf["rendered"],
        ]
    return "\n".join(lines)
