"""The paper's evaluation as gated rows: one :class:`Claim` per experiment.

Every experiment id of DESIGN.md (FIG2 ... COMP, REPLAY, the
diagnostics LEAK, CHANNEL and SYNTH, ORACLE, and DIGEST) is one claim.  Its
``measure`` runs the experiment on fixed inputs, seeds and sizes
through the library's own entry points (``survey.observe``/``decode``,
``run_attack``, ``SgxBzip2Attack``, ``train_classifier``,
``TaintChannel``, ``channel_health``, ``verify_mitigation``, ...) and
returns the measured values; its ``check`` turns them into verdicts.
:func:`collect_claim_metrics` flattens both into one metrics dict
(:func:`claim_rows` does it for one claim's values):

* ``claim.<ID>.<value>`` — a measured value: work, accuracy or a
  count, never a clock reading (speed is measured by ``perfbench/``);
* ``claim.<ID>.<what>.holds`` — 1 if the paper's claim holds on the
  measured values, else 0 (gated ``higher``: a 1 -> 0 change fails);
* ``claim.DIGEST.<bench>.metrics_digest`` — the sha256 of one pinned
  experiment run's metrics (:data:`DIGEST_PINS`), gated ``equal``: a
  "speedup" that changes what an experiment computes fails here.  This
  claim has no verdict; its ``equal`` rows are its gate.

``repro diag claims`` writes them as a :mod:`repro.gate` payload, which
``repro diag compare``, the repo's one behaviour gate, gates against
``benchmarks/claims_baseline.json``; EXPERIMENTS.md quotes that
baseline.  :func:`judge` recomputes the verdicts from (possibly edited)
measured values.

:func:`metric_direction` gives each row its :mod:`repro.gate`
direction by name suffix; ``diag compare`` gates with
:data:`DEFAULT_TOLERANCE` and :data:`ABS_EPSILON`, which absorb the
last-ulp libm differences another platform may bring to the seeded
timing draws (on one machine every row is exactly reproducible).  The
``CHANNEL`` measure, :func:`channel`, takes a cache noise override: the
gate's injected-regression drill (``diag compare --noise-sigma``)
re-measures that claim alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

#: ``params`` of a claims payload: ``diag compare`` re-collects the
#: claims only against a baseline with these parameters.
CLAIMS_PARAMS = {"suite": "claims"}

HOLDS = ".holds"
DIGEST = "metrics_digest"

DEFAULT_TOLERANCE = 0.05
# Absolute slack on gated metrics with ~0 baselines.
ABS_EPSILON = 0.005

# Direction per metric suffix; anything not matched is "info".
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
    "output_equal",
    "decodable",
    "guard_ok",
    "holds",  # a verdict: 1 -> 0 fails
)
# Mitigated rows are checked first: under an effective mitigation the
# channel must stay *closed*, so leakage going up is the regression
# (e.g. ``oracle.size.padding.mi_bits``, or every ``after.*`` leakage
# row of the ``repro mitigate`` loop — those must stay ~0 even though
# their un-prefixed suffixes are higher-is-better on the vulnerable
# kernel).
_LOWER = (
    "timing.misclassified_rate",
    "padding.mi_bits",
    "padding.recovered_fraction",
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
    """``higher`` / ``lower`` / ``equal`` / ``info`` for one metric name."""
    if name.endswith(DIGEST):
        return "equal"
    for suffix in _LOWER:
        if name.endswith(suffix):
            return "lower"
    for suffix in _HIGHER:
        if name.endswith(suffix):
            return "higher"
    return "info"


@dataclass(frozen=True)
class Claim:
    """One experiment of the paper's evaluation."""

    id: str
    measure: Callable[[], dict]  # -> {value name: number or digest}
    check: Callable[[dict], dict]  # measured values -> {what: bool}


CLAIMS: dict[str, Claim] = {}


def _claim(claim_id: str, check: Callable[[dict], dict]):
    def register(measure: Callable[[], dict]) -> Callable[[], dict]:
        CLAIMS[claim_id] = Claim(claim_id, measure, check)
        return measure

    return register


def _bits(taint, tag, shift: int = 0) -> tuple[int, int]:
    """Lowest and highest bit ``tag`` taints, less ``shift``."""
    bits = taint.bits_of_tag(tag) if tag is not None else ()
    return (min(bits) - shift, max(bits) - shift) if bits else (-1, -1)


def _range(v: dict, name: str) -> tuple:
    return v[f"{name}_lo_bit"], v[f"{name}_hi_bit"]


def _analyze(target: str, data: bytes):
    from repro.core.taintchannel import TaintChannel, target_for

    return TaintChannel().analyze(target, target_for(target, data))


@_claim(
    "FIG2",
    lambda v: {
        "three_byte_tags": v["address_tags"] == 3,
        "byte_i_bits_11_15": _range(v, "byte_i") == (11, 15),
        "byte_i1_bits_6_13": _range(v, "byte_i1") == (6, 13),
        "byte_i2_bits_1_8": _range(v, "byte_i2") == (1, 8),
    },
)
def fig2() -> dict:
    """Fig. 2: the ``head[ins_h]`` store address bits each of the three
    latest input bytes taints (2,000 lowercase bytes, seed 6)."""
    from repro.compression.lz77 import SITE_HEAD
    from repro.workloads import lowercase_ascii

    result = _analyze("zlib", lowercase_ascii(2000, seed=6))
    sample = next(a for a in result.gadget(SITE_HEAD).accesses if a.kind == "write")
    tags = sorted(sample.addr_taint.tags(), key=lambda t: result.tags.info(t).index)
    values = {"address_tags": len(tags)}
    for name, tag in zip(("byte_i", "byte_i1", "byte_i2"), tags + [None] * 3):
        values[f"{name}_lo_bit"], values[f"{name}_hi_bit"] = _bits(sample.addr_taint, tag)
    return values


@_claim(
    "FIG3",
    lambda v: {
        "chain_shl_and_xor": v["chain_has_shl"] == 1 and v["chain_has_xor"] == 1,
        "index_scaled_by_8": v["elem_size"] == 8,
        "c_index_bits_9_16": _range(v, "c_index") == (9, 16),
    },
)
def fig3() -> dict:
    """Fig. 3: input byte ``c`` reaches bits 9-16 of the ``htab`` index
    through ``shl 9`` and ``xor ent`` (1,500 English-like bytes, seed 9)."""
    from repro.compression.lzw import SITE_PRIMARY
    from repro.core.taintchannel.provenance import opcode_chain
    from repro.workloads import english_like

    result = _analyze("lzw", english_like(1500, seed=9))
    sample = next(a for a in result.gadget(SITE_PRIMARY).accesses if a.kind == "read")
    chain = opcode_chain(sample.addr_origin)
    newest = max(sample.addr_taint.tags(), key=lambda t: result.tags.info(t).index)
    # Address bits = index bits + log2(element size).
    lo, hi = _bits(sample.addr_taint, newest, sample.elem_size.bit_length() - 1)
    return {
        "chain_has_shl": int("shl" in chain),
        "chain_has_xor": int("xor" in chain),
        "elem_size": sample.elem_size,
        "c_index_lo_bit": lo,
        "c_index_hi_bit": hi,
    }


FIG4_BYTES = 1800


@_claim(
    "FIG4",
    lambda v: {
        "one_shared_byte": v["shared_tags"] == 1,
        "byte_k_high_half_at_k": _range(v, "iter_k") == (8, 15),
        "byte_k_low_half_at_k_minus_1": _range(v, "iter_k1") == (0, 7),
        "one_access_per_byte": v["gadget_accesses"] == FIG4_BYTES,
    },
)
def fig4() -> dict:
    """Fig. 4: consecutive ``ftab[j]++`` accesses share one input byte,
    first as the high, then as the low half of ``j`` (1,800 English-like
    bytes, seed 12, one full block)."""
    from repro.compression.bzip2 import SITE_FTAB
    from repro.workloads import english_like

    gadget = _analyze("bzip2", english_like(FIG4_BYTES, seed=12)).gadget(SITE_FTAB)
    first, second = gadget.accesses[10], gadget.accesses[11]
    shared = first.addr_taint.tags() & second.addr_taint.tags()
    tag = min(shared) if shared else None
    # Element size 4 shifts the index bits up by 2 in the address.
    values = {"shared_tags": len(shared), "gadget_accesses": gadget.count}
    values["iter_k_lo_bit"], values["iter_k_hi_bit"] = _bits(first.addr_taint, tag, 2)
    values["iter_k1_lo_bit"], values["iter_k1_hi_bit"] = _bits(second.addr_taint, tag, 2)
    return values


SURVEY_BYTES = 1200


@_claim(
    "SURVEY",
    lambda v: {
        "zlib_direct_quarter": abs(v["zlib_direct_fraction"] - 0.25) < 0.01,
        "zlib_lowercase_all_but_one": v["zlib_lowercase_accuracy"]
        >= (SURVEY_BYTES - 1) / SURVEY_BYTES,
        "brotli_gadget_smeared": v["brotli_coverage"] == 1.0 and v["brotli_smeared"] == 1,
        "lzw_found_among_8": v["lzw_exact_found"] == 1 and v["lzw_candidates"] <= 8,
        "bzip2_all_bits": v["bzip2_bit_accuracy"] == 1.0,
    },
)
def survey_claim() -> dict:
    """Sec. IV-E: the input each gadget gives a noise-free cache-line
    observer (1,200-byte inputs, seeds 21-23), and the Brotli-like
    second LZ77 gadget (400 lowercase bytes, seed 24)."""
    from repro.compression.brotli_like import SITE_BROTLI_HEAD, brotli_like_compress
    from repro.core.taintchannel import TaintChannel
    from repro.recovery import survey
    from repro.recovery.zlib_recover import recover_direct_bits
    from repro.workloads import lowercase_ascii, random_bytes

    n = SURVEY_BYTES
    data = lowercase_ascii(n, seed=21)
    lines, bases = survey.observe("zlib", data)
    direct = recover_direct_bits(lines, bases["head"], n)
    values = {
        "zlib_direct_fraction": sum(bin(m).count("1") for m, _ in direct) / (8 * n),
        "zlib_lowercase_accuracy": survey.decode("zlib", lines, bases, n, data).metrics[
            "zlib_accuracy"
        ],
    }
    data = lowercase_ascii(400, seed=24)
    brotli = TaintChannel().analyze("brotli", lambda ctx: brotli_like_compress(data, ctx))
    taint = brotli.gadget(SITE_BROTLI_HEAD).accesses[0].addr_taint
    values["brotli_coverage"] = brotli.input_coverage()
    values["brotli_smeared"] = int(all(len(taint.bits_of_tag(t)) > 10 for t in taint.tags()))
    for target, data in (("lzw", random_bytes(n, seed=22)), ("bzip2", random_bytes(n, seed=23))):
        lines, bases = survey.observe(target, data)
        values.update(survey.decode(target, lines, bases, n, data).metrics)
    return values


SEC5E_BYTES = 10_000


@_claim(
    "SEC5E",
    lambda v: {
        "bits_over_99pct": v["bit_accuracy"] > 0.99,
        "three_faults_per_byte": v["faults"] == 3 * SEC5E_BYTES,
    },
)
def sec5e() -> dict:
    """Sec. V-E: extract 10 KB of random data (seed 55) from the SGX
    victim with CAT and frame selection on."""
    from repro.core.zipchannel import AttackConfig, SgxBzip2Attack
    from repro.workloads import random_bytes

    outcome = SgxBzip2Attack(random_bytes(SEC5E_BYTES, seed=55), AttackConfig()).run()
    return {
        "bit_accuracy": outcome.bit_accuracy,
        "faults": outcome.faults,
        "frame_remaps": outcome.frame_remaps,
        "observations_empty": outcome.observations_empty,
    }


def _fingerprint(files, traces_per_file, seed, hidden, channel=None):
    """The Section VI dataset and training recipe at 80 epochs; returns
    ``(timelines, test accuracy, confusion diagonal)``."""
    import numpy as np

    from repro.classify import confusion_matrix
    from repro.core.zipchannel.fingerprint import build_dataset, train_classifier

    x, y, timelines = build_dataset(files, traces_per_file, seed=seed, channel=channel)
    clf, test, metrics = train_classifier(x, y, len(files), 80, seed, hidden)
    matrix = confusion_matrix(test[1], clf.predict(test[0]), len(files))
    return timelines, metrics["test_accuracy"], np.diagonal(matrix)


@_claim(
    "FIG7",
    lambda v: {
        "far_above_chance": v["test_accuracy"] > 5 / v["files"],
        "mainsort_files_over_60pct": v["mainsort_files_accuracy"] > 0.6,
        "tiny_fallback_files_confused": v["tiny_fallback_files_accuracy"]
        < v["mainsort_files_accuracy"],
    },
)
def fig7() -> dict:
    """Fig. 7: fingerprint the 21-file Brotli-style corpus (50 traces per
    file, seed 77, 96 hidden units)."""
    import numpy as np

    from repro.workloads import brotli_like_corpus

    corpus = brotli_like_corpus()
    names = list(corpus)
    timelines, accuracy, diag = _fingerprint(list(corpus.values()), 50, 77, 96)
    fallback_only = [i for i, tl in enumerate(timelines) if not tl.intervals["mainSort"]]
    tiny = [i for i in fallback_only if timelines[i].duration < 1000]
    main_users = [i for i in range(len(names)) if i not in fallback_only]
    return {
        "files": len(names),
        "test_accuracy": accuracy,
        "mainsort_files_accuracy": float(np.mean(diag[main_users])),
        "tiny_fallback_files_accuracy": float(np.mean(diag[tiny])),
        "file_x_accuracy": float(diag[names.index("x")]),
    }


@_claim(
    "FIG8",
    lambda v: {
        "most_repetitive_over_70pct": v["file1_accuracy"] > 0.7,
        "overall_over_40pct": v["test_accuracy"] > 0.4,
        "more_repetitive_more_recognisable": v["files1_2_mean_accuracy"]
        > v["files3_5_mean_accuracy"],
    },
)
def fig8() -> dict:
    """Fig. 8: tell apart five 20,000-byte lipsum files of growing
    repetitiveness (60 traces per file, seed 88, 64 hidden units) through
    a channel with the paper's hardware-level noise."""
    from repro.core.zipchannel.fingerprint import FingerprintChannel
    from repro.workloads import repetitiveness_series

    channel = FingerprintChannel(speed_jitter=0.5, p_false_negative=0.25)
    _, accuracy, diag = _fingerprint(repetitiveness_series(), 60, 88, 64, channel)
    return {
        "test_accuracy": accuracy,
        "file1_accuracy": float(diag[0]),
        "files2_5_min_accuracy": float(diag[1:].min()),
        "files2_5_max_accuracy": float(diag[1:].max()),
        "files1_2_mean_accuracy": float(diag[:2].mean()),
        "files3_5_mean_accuracy": float(diag[2:].mean()),
    }


AES_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
AES_PLAINTEXT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")


@_claim(
    "AES",
    lambda v: {
        "four_te_gadgets": v["te_gadgets"] == 4,
        "lookups_tainted_by_plaintext_and_key": (
            v["addr_taint_input"], v["addr_taint_key"], v["addr_taint_other_sources"]
        ) == (1, 1, 0),
        "every_plaintext_byte_leaks": v["input_coverage"] == 1.0,
        "round1_leaks_64_key_bits": v["key_bits_recovered"] == 64 and v["key_bits_correct"] == 1,
    },
)
def aes() -> dict:
    """Sec. III-B: TaintChannel finds T-table AES's first-round
    ``Te[p ^ k]`` lookups, and three random plaintexts (seed 99) give the
    key's top nibbles through them."""
    import random

    from repro.core.taintchannel import TaintChannel
    from repro.crypto.aes import aes128_encrypt_block
    from repro.crypto.aes_attack import (
        capture_round1_lines,
        recover_high_nibbles,
        recovered_key_mask,
    )

    result = TaintChannel().analyze(
        "aes-ttable", lambda ctx: aes128_encrypt_block(AES_KEY, AES_PLAINTEXT, ctx)
    )
    te = [g for g in result.gadgets if g.array.startswith("Te")]
    sources: set = set()
    for access in (a for g in te for a in g.accesses[:1]):
        sources |= {result.tags.info(t).source for t in access.addr_taint.tags()}
    rng = random.Random(99)
    plaintexts = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(3)]
    observed = [capture_round1_lines(AES_KEY, pt) for pt in plaintexts]
    partial, mask = recovered_key_mask(recover_high_nibbles(plaintexts, observed))
    return {
        "te_gadgets": len(te),
        "lookups_per_block": sum(g.count for g in te),
        "addr_taint_input": int("input" in sources),
        "addr_taint_key": int("key" in sources),
        "addr_taint_other_sources": len(sources - {"input", "key"}),
        "input_coverage": result.input_coverage(),
        "key_bits_recovered": sum(bin(m).count("1") for m in mask),
        "key_bits_correct": int(all(partial[p] == AES_KEY[p] & mask[p] for p in range(16))),
    }


@_claim(
    "MEMCPY",
    lambda v: {
        "64_vs_61_byte_tail": v["diverges_64_61"] == 1 and v["byte_tail_64_61"] == 1,
        "96_vs_96_no_divergence": v["diverges_96_96"] == 0,
        "32_vs_33_divergence": v["diverges_32_33"] == 1,
        "128_vs_120_divergence": v["diverges_128_120"] == 1,
    },
)
def memcpy() -> dict:
    """Sec. III-B: copy sizes of different residue mod 32 (the AVX
    register width) take different memcpy paths."""
    from repro.core.taintchannel import TaintChannel, avx_memcpy

    def target(size):
        def run(ctx):
            src = ctx.array("src", 256, init=3)
            avx_memcpy(ctx, ctx.array("dst", 256), src, size)

        return run

    tc = TaintChannel()
    values = {}
    for a, b in ((64, 61), (96, 96), (32, 33), (128, 120)):
        div = tc.diff(target(a), target(b))
        values[f"diverges_{a}_{b}"] = int(div is not None)
        if div is not None:
            values[f"byte_tail_{a}_{b}"] = int("byte_tail" in str(div.left) + str(div.right))
    return values


CAT_NOISE = (8, 60)


def _cat_checks(v: dict) -> dict:
    checks = {"all_jobs_ok": v["jobs_ok"] == 2 * len(CAT_NOISE)}
    for n in (f"noise{rate}" for rate in CAT_NOISE):
        checks[f"{n}.cat_accuracy_at_least_no_cat"] = (
            v[f"{n}.cat_bit_accuracy"] >= v[f"{n}.nocat_bit_accuracy"]
        )
        checks[f"{n}.cat_ambiguity_at_most_no_cat"] = (
            v[f"{n}.cat_ambiguous"] <= v[f"{n}.nocat_ambiguous"]
        )
    # Under the heaviest contention (the loop's last ``n``) the gap is material.
    checks[f"{n}.ambiguity_gap_over_50"] = v[f"{n}.nocat_ambiguous"] - v[f"{n}.cat_ambiguous"] > 50
    return checks


@_claim("ABL-CAT", _cat_checks)
def ablation_cat() -> dict:
    """Sec. V-C1: the extraction with and without the CAT partition under
    background contention of 8 and 60 (500-byte secret, seed 66), run as
    a campaign grid."""
    from repro.campaign import CampaignRunner, CampaignSpec, ResultStore

    spec = CampaignSpec(
        name="ablation-cat",
        experiment="sgx_attack",
        grid={"noise": list(CAT_NOISE), "use_cat": [True, False]},
        fixed={"size": 500, "secret_seed": 66},
        trials=1,
        base_seed=66,
        max_retries=1,
    )
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        result = CampaignRunner(spec, store).run()
        records = store.load_records().values()
    values = {"jobs_ok": result.counts.get("ok", 0)}
    for record in records:
        cell = f"noise{record.params['noise']}.{'' if record.params['use_cat'] else 'no'}cat"
        values[f"{cell}_bit_accuracy"] = record.metrics["bit_accuracy"]
        values[f"{cell}_ambiguous"] = record.metrics["observations_ambiguous"]
    return values


@_claim(
    "ABL-FRAME",
    lambda v: {
        "frames_accuracy_at_least_no_frames": v["frames_bit_accuracy"]
        >= v["noframes_bit_accuracy"],
        "frames_fewer_ambiguous": v["frames_ambiguous"] < v["noframes_ambiguous"],
        "no_remaps_without_frames": v["noframes_remaps"] == 0,
        "remaps_bounded": v["frames_remaps"] < 65 * 8,  # a few per ftab page
    },
)
def ablation_frames() -> dict:
    """Sec. V-C2: the extraction with and without frame selection
    (500-byte secret, seed 67)."""
    from repro.core.zipchannel import AttackConfig, SgxBzip2Attack
    from repro.workloads import random_bytes

    values = {}
    for name, on in (("frames", True), ("noframes", False)):
        config = AttackConfig(use_frame_selection=on)
        outcome = SgxBzip2Attack(random_bytes(500, seed=67), config).run()
        values[f"{name}_bit_accuracy"] = outcome.bit_accuracy
        values[f"{name}_ambiguous"] = outcome.observations_ambiguous
        values[f"{name}_remaps"] = outcome.frame_remaps
    return values


@_claim(
    "ABL-STEP",
    lambda v: {
        "mprotect_over_99pct": v["mprotect_bit_accuracy"] > 0.99,
        "timer_under_90pct": v["timer_bit_accuracy"] < 0.9,
        "gap_over_15_points": v["mprotect_bit_accuracy"] - v["timer_bit_accuracy"] > 0.15,
        "timer_loses_observations": v["timer_empty"] > v["mprotect_empty"],
    },
)
def ablation_stepping() -> dict:
    """Sec. V-A: mprotect single-stepping against the timer-interrupt
    baseline on one 120-byte secret (seed 71)."""
    from repro.core.zipchannel import AttackConfig, SgxBzip2Attack
    from repro.core.zipchannel.timer_attack import TimerSgxBzip2Attack
    from repro.workloads import random_bytes

    secret = random_bytes(120, seed=71)
    mprotect = SgxBzip2Attack(secret, AttackConfig()).run()
    timer = TimerSgxBzip2Attack(secret).run()
    values = {"mprotect_faults": mprotect.faults, "timer_interrupts": timer.interrupts}
    for name, outcome in (("mprotect", mprotect), ("timer", timer)):
        values[f"{name}_bit_accuracy"] = outcome.bit_accuracy
        values[f"{name}_byte_accuracy"] = outcome.byte_accuracy
        values[f"{name}_empty"] = outcome.observations_empty
    return values


@_claim(
    "MITIG",
    lambda v: {
        "vulnerable_over_95pct": v["before.byte_accuracy"] > 0.95,
        "mitigated_under_10pct": v["after.byte_accuracy"] < 0.10,
        "overhead_over_100x": v["access_overhead"] > 100,
        "mitigated_bits_under_80pct": v["after.bit_accuracy"] < 0.80,
    },
)
def mitigation() -> dict:
    """Sec. VIII: the Section V attack against the vulnerable and the
    oblivious-access histogram (200-byte secret, seed 44)."""
    from repro.core.zipchannel import AttackConfig, run_attack
    from repro.workloads import random_bytes

    secret = random_bytes(200, seed=44)
    vulnerable = run_attack(secret, AttackConfig())
    hardened = run_attack(secret, AttackConfig(), mitigated=True)
    return {
        "before.byte_accuracy": vulnerable.byte_accuracy,
        "after.byte_accuracy": hardened.byte_accuracy,
        "after.bit_accuracy": hardened.bit_accuracy,
        "access_overhead": hardened.victim_accesses / vulnerable.victim_accesses,
    }


COMP_BYTES = 300


@_claim(
    "COMP",
    lambda v: {
        "taintchannel_one_access_per_byte": v["gadget_accesses"] == COMP_BYTES,
        "taintchannel_gives_computation": v["chain_ops"] > 0,
        "correlation_flags_ftab": v["correlation_flags_ftab"] == 1,
        "symbolic_2_16_forks_per_byte": 15.0 <= v["log2_forks_per_byte"] <= 17.0,
    },
)
def comparators() -> dict:
    """Sec. VII: TaintChannel, trace correlation and symbolic execution
    on the bzip2 histogram (300 English-like bytes, seed 31)."""
    from repro.compression.bzip2 import SITE_FTAB
    from repro.core.comparators import TraceCorrelator, estimate_symbolic_cost
    from repro.core.taintchannel import TaintChannel, target_for
    from repro.core.taintchannel.provenance import backward_slice
    from repro.workloads import english_like

    data = english_like(COMP_BYTES, seed=31)
    tc = TaintChannel(max_events=4_000_000)
    ctx = tc.trace(target_for("bzip2", data))
    gadget = tc.analyze("bzip2", target_for("bzip2", data), ctx=ctx).gadget(SITE_FTAB)
    symbolic = estimate_symbolic_cost(ctx)
    correlator = TraceCorrelator(runs=5, input_len=COMP_BYTES, seed=32)
    reports = correlator.analyze(lambda d: target_for("bzip2", d))
    return {
        "gadget_accesses": gadget.count,
        "chain_ops": len(backward_slice(gadget.accesses[0].addr_origin)),
        "correlation_flags_ftab": int(SITE_FTAB in TraceCorrelator.leaky_sites(reports)),
        "log2_forks_per_byte": symbolic.log2_states_per_input_byte,
        "log2_states": symbolic.log2_states,
    }


@_claim(
    "REPLAY",
    lambda v: {
        "replayed_metrics_identical": v["metrics_identical"] == 1,
        "store_pays_for_itself": v["replay_victim_runs"] == 0
        and v["capture_victim_runs"] == v["live_victim_runs"],
    },
)
def replay() -> dict:
    """The trace store's payoff on the Fig. 7 corpus, counted in victim
    compressions: one live fingerprint experiment (4 traces per file, 6
    epochs, seed 77) vs one capture and two replays.  The capture runs
    the victim as often as the live experiment does; a replay runs it
    never, and scores the same metrics."""
    from repro.core.zipchannel.fingerprint import (
        run_fingerprint_experiment,
        victim_runs,
    )
    from repro.traces import (
        TraceStore,
        capture_fingerprint_traces,
        fingerprint_experiment_from_store,
    )

    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(f"{root}/fig7.trstore")
        r0 = victim_runs()
        live = run_fingerprint_experiment("brotli", 4, 6, 77)
        r1 = victim_runs()
        capture_fingerprint_traces(store, "fig7", "brotli", traces_per_file=4, seed=77)
        r2 = victim_runs()
        replayed = [fingerprint_experiment_from_store(store, "fig7", 6, 77) for _ in range(2)]
        r3 = victim_runs()
    return {
        "metrics_identical": int(all(r == live for r in replayed)),
        "live_victim_runs": r1 - r0,
        "capture_victim_runs": r2 - r1,
        "replay_victim_runs": r3 - r2,
    }


# The diagnostics suite's committed parameters (LEAK, CHANNEL, SYNTH,
# ORACLE): survey size and seed, timing draws, eviction-set targets,
# single-step input bytes, oracle samples per mitigation.
DIAG_SIZE, DIAG_SEED = 120, 7
TIMING_SAMPLES, EVICTION_TARGETS, STEP_BYTES = 1500, 4, 32
ORACLE_SAMPLES = 48


@_claim(
    "LEAK",
    lambda v: {
        "zlib_bytes_over_95pct": v["zlib.byte_accuracy"] >= 0.95,
        "lzw_bits_over_95pct": v["lzw.bit_accuracy"] >= 0.95,
        "lzw_exact_found": v["lzw.exact_found"] == 1,
        "bzip2_every_byte": v["bzip2.byte_accuracy"] == 1.0,
        "bzip2_no_ambiguous_position": v["bzip2.ambiguous_positions"] == 0,
    },
)
def leakage() -> dict:
    """Sec. IV: the three survey gadgets' leakage meters (mutual
    information, per-bit accuracy) on 120-byte inputs, seed 7."""
    from repro.diag.leakage import survey_leakage

    values = {}
    for target, diag in survey_leakage(DIAG_SIZE, DIAG_SEED).items():
        values.update(diag.metric_dict(prefix=f"{target}."))
    return values


@_claim(
    "CHANNEL",
    lambda v: {
        "timing_margin_over_5_sigma": v["timing.margin_sigma"] > 5.0,
        "no_misclassified_probe": v["timing.misclassified_rate"] == 0.0,
        "eviction_sets_exact": all(
            v[f"eviction.{name}_fraction"] == 1.0
            for name in ("found", "minimal", "verified", "congruent")
        ),
        "single_step_exact": all(
            v[f"single_step.{name}"] == 1.0
            for name in ("step_fidelity", "ftab_fault_fidelity", "page_accuracy")
        ),
    },
)
def channel(noise_sigma: Optional[float] = None) -> dict:
    """Sec. V's physical channel: hit/miss timing margins (1,500 draws),
    eviction-set quality (4 targets) and Fig. 5 single-stepping (32
    bytes); ``noise_sigma`` overrides the cache noise."""
    from repro.diag.channel import channel_health

    health = channel_health(
        samples=TIMING_SAMPLES,
        n_targets=EVICTION_TARGETS,
        step_n=STEP_BYTES,
        noise_sigma=noise_sigma,
    )
    timing = health["timing"]
    values = {
        f"timing.{key}": float(timing[key])
        for key in (
            "margin_sigma",
            "empirical_separation",
            "misclassified_rate",
            "hit_mean",
            "miss_mean",
            "noise_sigma",
        )
    }
    for probe in ("eviction", "single_step"):
        for key, value in health[probe].items():
            values[f"{probe}.{key}"] = float(value)
    return values


@_claim(
    "SYNTH",
    lambda v: {
        "vulnerable_over_1_bit_per_byte": v["mitigate.lzw.before.mi_bits_per_byte"] > 1.0,
        "patched_under_0_1_bit_per_byte": v["mitigate.lzw.after.mi_bits_per_byte"] < 0.1,
        "patched_recovers_no_byte": v["mitigate.lzw.after.byte_accuracy"] == 0.0,
        "no_residual_gadget": v["mitigate.lzw.residual_gadgets"] == 0,
        "output_equal_and_decodable": v["mitigate.lzw.output_equal"] == 1
        and v["mitigate.lzw.decodable"] == 1,
    },
)
def synthesis() -> dict:
    """Sec. VIII, synthesised: the mitigation planned from LZW's gadget
    report, applied and re-metered (120 bytes, seed 7)."""
    from repro.mitigations.verify import verify_mitigation

    report = verify_mitigation("lzw", size=DIAG_SIZE, seed=DIAG_SEED)
    return {f"mitigate.lzw.{k}": float(v) for k, v in report.metric_dict().items()}


@_claim(
    "ORACLE",
    lambda v: {
        "open_channel_saturates": v["oracle.size.recovered_fraction"] == 1.0
        and abs(v["oracle.size.mi_bits"] - v["oracle.size.capacity_bits"]) < 1e-9,
        "padding_loses_characters": v["oracle.size.padding.recovered_fraction"] < 1.0,
    },
)
def oracle() -> dict:
    """Sec. II's coarser channel: one BREACH size-oracle step's mutual
    information, open and under length padding (48 samples, seed 7)."""
    from repro.diag.oracle import measure_oracle_channel

    values = {}
    for mitigation, prefix in (("none", "oracle.size."), ("padding", "oracle.size.padding.")):
        diag = measure_oracle_channel("size", mitigation, ORACLE_SAMPLES, DIAG_SEED)
        values.update(diag.metric_dict(prefix=prefix))
    return values


# The DIGEST claim's pins, ``{bench: (experiment, params, seed)}``: one
# registered campaign experiment per hot path, each run in well under a
# second.  The names key the committed baseline rows, so renaming one
# orphans its row.
DIGEST_PINS = {
    "sec5e_attack": ("sgx_attack", {"size": 400}, 55),
    "fig7_dataset": (
        "fingerprint_dataset",
        {"corpus": "brotli", "traces": 2, "max_file_bytes": 1200},
        77,
    ),
    "survey_recovery": ("survey_recovery", {"size": 200}, 11),
    "taintchannel_zlib": (
        "taintchannel_scan",
        {"target": "zlib", "size": 250, "input_kind": "lowercase"},
        3,
    ),
    "taintchannel_lzw": ("taintchannel_scan", {"target": "lzw", "size": 200}, 3),
    "mitigate_lzw": ("mitigation_synthesis", {"target": "lzw", "size": 80}, 7),
    "lzw_recovery": ("lzw_recovery", {"size": 150, "noise": 0.02}, 9),
    "survey_replay": ("survey_replay", {"size": 300}, 11),
    "fig7_replay": (
        "fig7_replay",
        {"corpus": "brotli", "traces": 2, "max_file_bytes": 1200},
        77,
    ),
    "access_many_probe": (
        "probe_sweep",
        {"rounds": 60, "locations": 96, "noise_rate": 64},
        21,
    ),
}

# Metrics keys that legitimately vary run to run (wall clock measured
# inside the experiment itself) and must not poison the digest.
VOLATILE_METRIC_KEYS = ("elapsed_seconds", "duration_seconds")


def metrics_digest(metrics: dict) -> str:
    """sha256 over the canonical JSON of a metrics dict, with volatile
    wall-clock fields stripped; the identity a pinned run's behaviour
    is gated by."""
    stable = {k: v for k, v in metrics.items() if k not in VOLATILE_METRIC_KEYS}
    payload = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@_claim("DIGEST", lambda v: {})
def digests() -> dict:
    """The hot paths' behaviour: each :data:`DIGEST_PINS` experiment run
    once at its pin, hashed."""
    from repro.campaign.experiments import get_experiment

    return {
        f"{bench}.{DIGEST}": metrics_digest(get_experiment(experiment)(dict(params), seed))
        for bench, (experiment, params, seed) in DIGEST_PINS.items()
    }


def judge(metrics: dict) -> dict:
    """Recompute every ``.holds`` row from the measured ``claim.*`` rows
    in ``metrics``; returns a new dict.  A missing measured value reads
    as NaN, so every verdict that needs it is 0."""
    out = {k: v for k, v in metrics.items() if not k.endswith(HOLDS)}
    for claim in CLAIMS.values():
        prefix = f"claim.{claim.id}."
        values = {k[len(prefix):]: v for k, v in out.items() if k.startswith(prefix)}
        if values:
            checks = claim.check(defaultdict(lambda: math.nan, values))
            out.update({f"{prefix}{what}{HOLDS}": int(bool(ok)) for what, ok in checks.items()})
    return out


def _row_value(value):
    if isinstance(value, str):  # a metrics digest
        return value
    return float(value) if isinstance(value, float) else int(value)


def claim_rows(claim_id: str, values: dict) -> dict:
    """One claim's measured ``values`` as ``claim.<ID>.*`` rows, with
    its verdicts."""
    return judge({f"claim.{claim_id}.{name}": _row_value(value) for name, value in values.items()})


def collect_claim_metrics() -> dict:
    """Run every claim into one flat metrics dict with its verdicts."""
    metrics = {}
    for claim in CLAIMS.values():
        metrics.update(claim_rows(claim.id, claim.measure()))
    return metrics
