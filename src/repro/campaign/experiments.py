"""The experiment registry: every campaign-runnable entry point.

An *experiment* is a plain function ``fn(params: dict, seed: int) ->
dict`` — picklable, importable, all inputs in ``params``/``seed`` and
all outputs JSON-serialisable — which is exactly what lets the runner
ship it across a process boundary and the store persist its result.

The built-in registrations adapt the reproduction's existing entry
points (TaintChannel gadget scan, the Section V SGX extraction, the
Section VI fingerprinting, the Section IV recovery survey, and the
Section VIII mitigation costing) plus a noisy-channel variant of the
LZW recovery used by the demo campaign.  Downstream code registers its
own with :func:`register_experiment`.
"""

from __future__ import annotations

import contextlib
import random
import tempfile
from typing import Callable, Dict, Iterator

ExperimentFn = Callable[[dict, int], dict]

_REGISTRY: Dict[str, ExperimentFn] = {}


def register_experiment(name: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator: register ``fn(params, seed) -> metrics`` under a name.

    Re-registering a name overwrites it (tests replace built-ins with
    fast stand-ins)."""

    def wrap(fn: ExperimentFn) -> ExperimentFn:
        _REGISTRY[name] = fn
        return fn

    return wrap


def get_experiment(name: str) -> ExperimentFn:
    """Look up a registered experiment; KeyError lists what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def available_experiments() -> list[str]:
    """Names of all registered experiments."""
    return sorted(_REGISTRY)


def make_input(kind: str, size: int, seed: int) -> bytes:
    """The shared input factory for campaign experiments (mirrors the
    CLI's ``--random/--lowercase/--text`` input kinds)."""
    from repro.workloads import english_like, lowercase_ascii, random_bytes

    if kind == "random":
        return random_bytes(size, seed=seed)
    if kind == "lowercase":
        return lowercase_ascii(size, seed=seed)
    if kind == "text":
        return english_like(size, seed=seed)
    raise ValueError(f"unknown input kind {kind!r}")


# -- built-in experiments ------------------------------------------------


@register_experiment("lzw_recovery")
def lzw_recovery(params: dict, seed: int) -> dict:
    """Section IV-C recovery over a noisy cache-line trace.

    Params: ``size`` (input bytes, default 200), ``input_kind``
    (default ``random``), ``noise`` (per-observation corruption
    probability, default 0 — the survey's idealised channel).  A
    corrupted observation is displaced by one cache line, the classic
    Prime+Probe neighbour error.
    """
    from repro.recovery import survey

    size = int(params.get("size", 200))
    noise = float(params.get("noise", 0.0))
    data = make_input(params.get("input_kind", "random"), size, seed)
    lines, bases = survey.observe("lzw", data)

    rng = random.Random(seed ^ 0xC0FFEE)
    corrupted = 0
    noisy = []
    for line in lines:
        if noise > 0.0 and rng.random() < noise:
            corrupted += 1
            line += rng.choice((-1, 1))
        noisy.append(line)

    extras = survey.decode("lzw", noisy, bases, size, data).extras
    return {
        "exact_found": extras["exact_found"],
        "n_candidates": extras["n_candidates"],
        "n_observations": len(lines),
        "n_corrupted": corrupted,
    }


@register_experiment("taintchannel_scan")
def taintchannel_scan(params: dict, seed: int) -> dict:
    """TaintChannel gadget scan over a named target.

    Params: ``target`` (zlib/lzw/bzip2/aes), ``size``, ``input_kind``,
    ``carry_aware``, ``max_events``.
    """
    from repro.core.taintchannel import run_gadget_scan

    data = make_input(
        params.get("input_kind", "random"), int(params.get("size", 200)), seed
    )
    return run_gadget_scan(
        params.get("target", "zlib"),
        data,
        carry_aware_add=bool(params.get("carry_aware", False)),
        max_events=int(params.get("max_events", 2_000_000)),
    )


@register_experiment("sgx_attack")
def sgx_attack(params: dict, seed: int) -> dict:
    """The Section V SGX extraction attack (CAT/frame-selection/noise
    knobs as params; ``secret_seed`` pins the buffer across cells)."""
    from repro.core.zipchannel import run_extraction_experiment

    return run_extraction_experiment(
        size=int(params.get("size", 200)),
        seed=seed,
        noise=int(params.get("noise", 2)),
        use_cat=bool(params.get("use_cat", True)),
        use_frame_selection=bool(params.get("use_frame_selection", True)),
        mitigated=bool(params.get("mitigated", False)),
        secret_seed=params.get("secret_seed"),
    )


@register_experiment("fingerprint")
def fingerprint(params: dict, seed: int) -> dict:
    """The Section VI Flush+Reload fingerprinting attack."""
    from repro.core.zipchannel import run_fingerprint_experiment

    return run_fingerprint_experiment(
        corpus=params.get("corpus", "lipsum"),
        traces=int(params.get("traces", 10)),
        epochs=int(params.get("epochs", 20)),
        seed=seed,
        hidden=int(params.get("hidden", 96)),
    )


@register_experiment("fingerprint_dataset")
def fingerprint_dataset(params: dict, seed: int) -> dict:
    """The Section VI dataset *build* alone — victim timelines plus
    noisy captures, no classifier training.

    This is the substrate-bound half of the fingerprint pipeline (the
    MLP is numpy-bound), so it is what the ``fig7_dataset`` perf bench
    pins.  Metrics fingerprint the dataset content so a faster build
    that changes a single sample is caught.

    Params: ``corpus`` (``brotli`` | ``lipsum``), ``traces``,
    ``work_factor``, ``max_file_bytes`` (truncate every corpus file;
    how the perf pin keeps CI runs short).
    """
    import hashlib

    from repro.core.zipchannel.fingerprint import build_dataset
    from repro.workloads import fingerprint_corpus

    files = list(fingerprint_corpus(params.get("corpus", "lipsum")).values())
    max_bytes = params.get("max_file_bytes")
    if max_bytes is not None:
        files = [f[: int(max_bytes)] for f in files]
    x, y, timelines = build_dataset(
        files,
        traces_per_file=int(params.get("traces", 10)),
        seed=seed,
        work_factor=params.get("work_factor"),
    )
    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    return {
        "n_samples": int(x.shape[0]),
        "n_features": int(x.shape[1]),
        "dataset_sha256": digest.hexdigest(),
        "paths": [";".join(tl.paths) for tl in timelines],
        "total_duration": sum(tl.duration for tl in timelines),
    }


@register_experiment("survey_recovery")
def survey_recovery(params: dict, seed: int) -> dict:
    """The Section IV survey: recover one input through each of the
    three compressors' gadgets, noise-free channel."""
    from repro.recovery import survey

    size = int(params.get("size", 300))
    out: dict = {}
    for target in survey.SURVEY_TARGETS:
        data = make_input(
            survey.input_kind(target), size, survey.input_seed(target, seed)
        )
        lines, bases = survey.observe(target, data)
        out.update(survey.decode(target, lines, bases, size, data).metrics)
    return out


@register_experiment("trace_capture")
def trace_capture(params: dict, seed: int) -> dict:
    """Capture victim traces into a :class:`repro.traces.TraceStore`.

    The capture half of a capture-once/analyze-many campaign: one sweep
    runs this into a shared store, a second sweep runs
    ``survey_from_store`` / ``fingerprint_from_store`` against it.

    Params: ``store`` (directory, required), ``kind`` (``survey`` |
    ``fingerprint``), ``sweep_seed`` (pins the trace ids so analysis
    cells can find them; defaults to the job seed), plus ``size`` for
    survey captures and ``corpus``/``traces``/``work_factor`` for
    fingerprint captures.
    """
    from repro.traces import TraceStore
    from repro.traces.capture import (
        capture_fingerprint_traces,
        capture_survey_traces,
        fingerprint_trace_id,
    )

    store = TraceStore(params["store"])
    kind = params.get("kind", "survey")
    sweep_seed = int(params.get("sweep_seed", seed))
    if kind == "survey":
        entries = capture_survey_traces(
            store,
            size=int(params.get("size", 300)),
            seed=sweep_seed,
            overwrite=True,
        )
    elif kind == "fingerprint":
        corpus = params.get("corpus", "lipsum")
        traces = int(params.get("traces", 10))
        entries = [
            capture_fingerprint_traces(
                store,
                fingerprint_trace_id(corpus, traces, sweep_seed),
                corpus=corpus,
                traces_per_file=traces,
                seed=sweep_seed,
                work_factor=params.get("work_factor"),
                overwrite=True,
                extra_meta={"experiment": "fingerprint"},
            )
        ]
    else:
        raise ValueError(f"unknown capture kind {kind!r}")
    return {
        "trace_ids": [e.trace_id for e in entries],
        "n_records": sum(e.n_records for e in entries),
        "size_bytes": sum(e.size_bytes for e in entries),
    }


@register_experiment("survey_from_store")
def survey_from_store(params: dict, seed: int) -> dict:
    """The Section IV survey, replayed from stored traces.

    Same metrics dict as ``survey_recovery`` — but the victim is never
    re-simulated.  Params: ``store``, ``size``, ``sweep_seed`` (must
    match the capture cell; defaults to the job seed).
    """
    from repro.traces import TraceStore
    from repro.traces.replay import survey_from_store as replay_survey

    return replay_survey(
        TraceStore(params["store"]),
        size=int(params.get("size", 300)),
        sweep_seed=int(params.get("sweep_seed", seed)),
    )


@register_experiment("fingerprint_from_store")
def fingerprint_from_store(params: dict, seed: int) -> dict:
    """The Section VI classifier, trained from stored traces.

    Params: ``store``, ``trace_id`` (or ``corpus``/``traces``/
    ``sweep_seed`` to derive the id the capture cell used), ``epochs``,
    ``hidden``; the job seed drives the split/initialisation exactly as
    in the live ``fingerprint`` experiment.
    """
    from repro.traces import TraceStore
    from repro.traces.capture import fingerprint_trace_id
    from repro.traces.replay import fingerprint_experiment_from_store

    trace_id = params.get("trace_id")
    if trace_id is None:
        corpus = params.get("corpus", "lipsum")
        traces = int(params.get("traces", 10))
        sweep_seed = int(params.get("sweep_seed", seed))
        trace_id = fingerprint_trace_id(corpus, traces, sweep_seed)
    return fingerprint_experiment_from_store(
        TraceStore(params["store"]),
        trace_id,
        epochs=int(params.get("epochs", 20)),
        seed=seed,
        hidden=int(params.get("hidden", 96)),
    )


@contextlib.contextmanager
def _replay_store(params: dict, trace_id: str, capture) -> Iterator[object]:
    """The store a replay experiment reads: ``params['store']`` (running
    ``capture`` into it when ``trace_id`` is missing), else a scratch
    store captured for this call and removed when the block exits."""
    from repro.traces import TraceStore

    path = params.get("store")
    if path is not None:
        store = TraceStore(path).open()
        if trace_id not in {e.trace_id for e in store.list()}:
            capture(store)
        yield store
        return
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = TraceStore(root).open()
        capture(store)
        yield store


@register_experiment("survey_replay")
def survey_replay(params: dict, seed: int) -> dict:
    """Replay the three survey line streams from a stored sweep.

    The from-store analysis hot path in isolation: store read, columnar
    chunk decode, site/kind filter, ``>> 6``.  The metrics fingerprint
    the line streams, so the perf harness digest pins them.

    Params: ``size``, ``sweep_seed`` (defaults to the job seed),
    optional ``store`` path (default: a scratch store, captured for
    this call and removed before it returns).
    """
    import hashlib

    from repro.recovery import survey
    from repro.traces.capture import capture_survey_traces
    from repro.traces.replay import target_lines

    size = int(params.get("size", 600))
    sweep_seed = int(params.get("sweep_seed", seed))
    digest = hashlib.sha256()
    out: dict = {}
    with _replay_store(
        params,
        survey.trace_id("zlib", size, sweep_seed),
        lambda store: capture_survey_traces(
            store, size=size, seed=sweep_seed, overwrite=True
        ),
    ) as store:
        for target in survey.SURVEY_TARGETS:
            lines = target_lines(
                store, survey.trace_id(target, size, sweep_seed), target
            )
            out[f"{target}_lines"] = int(lines.shape[0])
            digest.update(lines.astype("<i8").tobytes())
    out["lines_sha256"] = digest.hexdigest()
    return out


@register_experiment("fig7_replay")
def fig7_replay(params: dict, seed: int) -> dict:
    """Reassemble the Fig. 7 classifier dataset from a stored trace.

    The from-store counterpart of ``fingerprint_dataset``: pooling and
    flattening only, no victim, no classifier.  The metrics carry a
    digest of the dataset.

    Params: ``corpus``, ``traces``, ``sweep_seed`` (defaults to the job
    seed), ``work_factor``, ``max_file_bytes``, optional ``store`` path
    (default: a scratch store, captured for this call and removed
    before it returns).
    """
    import hashlib

    from repro.traces.capture import capture_fingerprint_traces, fingerprint_trace_id
    from repro.traces.replay import dataset_from_store

    corpus = params.get("corpus", "lipsum")
    traces = int(params.get("traces", 10))
    sweep_seed = int(params.get("sweep_seed", seed))
    work_factor = params.get("work_factor")
    max_file_bytes = params.get("max_file_bytes")
    trace_id = fingerprint_trace_id(corpus, traces, sweep_seed)

    def capture(store) -> None:
        capture_fingerprint_traces(
            store,
            trace_id,
            corpus=corpus,
            traces_per_file=traces,
            seed=sweep_seed,
            work_factor=work_factor,
            overwrite=True,
            max_file_bytes=max_file_bytes,
        )

    with _replay_store(params, trace_id, capture) as store:
        x, y = dataset_from_store(store, trace_id)
    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.astype("<i8").tobytes())
    return {
        "n_samples": int(x.shape[0]),
        "n_features": int(x.shape[1]),
        "dataset_sha256": digest.hexdigest(),
    }


@register_experiment("probe_sweep")
def probe_sweep(params: dict, seed: int) -> dict:
    """Prime+Probe measurement rounds against background noise — the
    batched cache API (`access_many_silent` / `access_many_missed`) hot
    path, with no victim in the loop.

    Params: ``rounds``, ``locations`` (monitored set size), ``ways``
    (primed lines per location), ``noise_rate`` (noise lines per round),
    plus the cache geometry (``n_slices``, ``sets_per_slice``,
    ``cache_ways`` — default small enough that the noise actually
    contends with the primed lines).
    """
    from repro.cache import BackgroundNoise, Cache, CacheConfig
    from repro.sidechannel.prime_probe import AttackerMemory, PrimeProbe

    rounds = int(params.get("rounds", 200))
    n_locations = int(params.get("locations", 256))
    ways = int(params.get("ways", 1))
    noise_rate = int(params.get("noise_rate", 64))
    cache = Cache(
        CacheConfig(
            n_slices=int(params.get("n_slices", 2)),
            sets_per_slice=int(params.get("sets_per_slice", 128)),
            ways=int(params.get("cache_ways", 4)),
            seed=seed,
        )
    )
    memory = AttackerMemory(cache, n_lines=1 << 15)
    probe = PrimeProbe(cache, memory, ways=ways)
    locations = memory.locations_with(ways)[:n_locations]
    noise = BackgroundNoise(cache, rate=noise_rate, seed=seed ^ 0x5EED)
    active_total = 0
    for _ in range(rounds):
        probe.prime(locations)
        noise.step()
        active_total += len(probe.probe(locations))
    stats = cache.stats
    return {
        "rounds": rounds,
        "locations": len(locations),
        "active_total": active_total,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evictions": stats["evictions"],
    }


@register_experiment("mitigation_overhead")
def mitigation_overhead(params: dict, seed: int) -> dict:
    """Section VIII costing: the full attack against the vulnerable and
    the oblivious histogram, same secret, same knobs."""
    from repro.core.zipchannel import AttackConfig, run_attack
    from repro.workloads import random_bytes

    secret = random_bytes(int(params.get("size", 200)), seed=seed)
    config = AttackConfig(background_noise_rate=int(params.get("noise", 2)))
    vulnerable = run_attack(secret, config)
    hardened = run_attack(secret, config, mitigated=True)
    return {
        "vulnerable_byte_accuracy": vulnerable.byte_accuracy,
        "mitigated_byte_accuracy": hardened.byte_accuracy,
        "mitigated_bit_accuracy": hardened.bit_accuracy,
        "access_overhead": hardened.victim_accesses / vulnerable.victim_accesses,
    }


@register_experiment("mitigation_synthesis")
def mitigation_synthesis(params: dict, seed: int) -> dict:
    """The ``repro mitigate`` loop as a campaign experiment: scan the
    vulnerable kernel, synthesise the per-site plan, apply it, and
    re-meter.

    Params: ``target`` (zlib/lzw/bzip2, default lzw), ``size`` (input
    bytes, default 120), ``input_kind`` (default: the survey's
    per-target convention), ``hash_bits`` (mitigated LZW table size,
    default 12).  Returns the flat before/after leakage metrics plus
    plan shape, output-equality flags, and access overhead; native
    wall-clock goes under the volatile ``elapsed_seconds`` key so
    digest pinning ignores it.
    """
    from repro.mitigations.verify import verify_mitigation

    report = verify_mitigation(
        params.get("target", "lzw"),
        size=int(params.get("size", 120)),
        input_kind=params.get("input_kind"),
        seed=seed,
        hash_bits=int(params.get("hash_bits", 12)),
    )
    metrics = report.metric_dict()
    metrics["elapsed_seconds"] = dict(report.elapsed_seconds)
    return metrics


@register_experiment("gadget_leakage")
def gadget_leakage(params: dict, seed: int) -> dict:
    """Channel-quality diagnostics for one survey gadget.

    Params: ``target`` (``zlib``/``lzw``/``bzip2``), ``size`` (input
    bytes, default 120), ``input_kind`` (default: the survey's per-
    target convention).  With ``store`` (+ optional ``trace_id`` or
    ``sweep_seed``) the metering replays a stored trace instead of
    re-running the victim — metrics are bit-identical either way.
    Returns the flat leakage metrics (per-bit accuracy, empirical
    mutual information, bits per cache-line observation).
    """
    from repro.diag.leakage import (
        measure_gadget_from_store,
        measure_gadget_live,
    )

    target = params.get("target", "bzip2")
    size = int(params.get("size", 120))
    if "store" in params:
        from repro.recovery.survey import trace_id as survey_trace_id
        from repro.traces import TraceStore

        sweep_seed = int(params.get("sweep_seed", seed))
        trace_id = params.get(
            "trace_id", survey_trace_id(target, size, sweep_seed)
        )
        diag = measure_gadget_from_store(TraceStore(params["store"]), trace_id)
    else:
        diag = measure_gadget_live(
            target, size, seed, input_kind=params.get("input_kind")
        )
    return diag.metric_dict()


@register_experiment("channel_health")
def channel_health_experiment(params: dict, seed: int) -> dict:
    """The channel-health probe suite as a campaign experiment.

    Params: ``samples`` (timing draws, default 1500), ``n_targets``
    (eviction-set targets, default 4), ``step_n`` (single-step input
    bytes, default 32), ``noise_sigma`` (cache timer noise override).
    ``seed`` is unused — the probes pin their own seeds so results are
    comparable across campaign cells.
    """
    from repro.diag.channel import channel_health

    del seed
    noise_sigma = params.get("noise_sigma")
    health = channel_health(
        samples=int(params.get("samples", 1500)),
        n_targets=int(params.get("n_targets", 4)),
        step_n=int(params.get("step_n", 32)),
        noise_sigma=None if noise_sigma is None else float(noise_sigma),
    )
    return {
        "margin_sigma": health["timing"]["margin_sigma"],
        "empirical_separation": health["timing"]["empirical_separation"],
        "misclassified_rate": health["timing"]["misclassified_rate"],
        "eviction_minimal_fraction": health["eviction"]["minimal_fraction"],
        "eviction_congruent_fraction": health["eviction"]["congruent_fraction"],
        "eviction_mean_tests": health["eviction"]["mean_tests"],
        "single_step_fidelity": health["single_step"]["step_fidelity"],
        "single_step_page_accuracy": health["single_step"]["page_accuracy"],
    }


# -- compression-oracle scenarios (BREACH / memory compression) --------


def _oracle_setup(params: dict, seed: int):
    """Build the (victim, oracle) pair a scenario cell describes.

    Shared by the oracle experiments so a sweep cell and a standalone
    run with the same coordinates hit the identical configuration.
    """
    from repro.oracle import make_oracle, make_victim

    victim_name = params.get("victim", "http")
    observable = params.get("observable", "size")
    mitigation = params.get("mitigation", "none")
    victim_kwargs = {
        "seed": seed,
        "secret_len": int(params.get("secret_len", 8)),
        "charset": params.get("charset", "alnum_lower"),
    }
    if victim_name == "http" and "filler_bytes" in params:
        victim_kwargs["filler_bytes"] = int(params["filler_bytes"])
    victim = make_victim(victim_name, mitigation=mitigation, **victim_kwargs)
    oracle = make_oracle(
        victim,
        observable,
        mitigation,
        seed=seed,
        **dict(params.get("mitigation_params", {})),
    )
    return victim, oracle


@register_experiment("breach_recovery")
def breach_recovery(params: dict, seed: int) -> dict:
    """Iterative BREACH secret recovery through a sealed oracle.

    Params: ``victim`` (``http``/``memcomp``), ``observable``
    (``size``/``time``), ``mitigation`` (``none``/``padding``/
    ``quantize``/``jitter``/``debreach``), ``secret_len``, ``charset``,
    ``reps``, ``max_queries``, ``mitigation_params`` (dict forwarded to
    the mitigation), optional ``store`` to persist the probe trace.
    The recovered bytes are scored against the victim's ground truth
    but never returned — only the ``correct`` verdict and per-position
    confirmed fraction leave the worker.

    Viable cells: ``http`` leaks through both observables;
    ``memcomp`` leaks byte-wise only through ``size`` — on its *time*
    observable the per-byte copy-out saving is cancelled by the longer
    match search, so byte-granular recovery is below SNR and the
    ``memcomp_timing`` candidate distinguisher is the timing attack
    (exactly the split in the literature).
    """
    from repro.oracle import BreachAttack

    victim, oracle = _oracle_setup(params, seed)
    secret_len = len(victim.secret)
    # The memcomp page carries a multi-entry probe systematic that flips
    # the divide-and-conquer sign (singleton probes are clean), so it
    # defaults to the O(n) scan strategy like the timing oracle does.
    strategy = params.get(
        "strategy", "scan" if victim.name == "memcomp" else None
    )
    attack = BreachAttack(
        oracle,
        victim.known_prefix,
        reps=int(params.get("reps", 2)),
        seed=seed ^ 0xB4EA,
        max_queries=int(params.get("max_queries", 50_000)),
        strategy=strategy,
    )
    result = attack.run(secret_len, truth=victim.secret)
    if "store" in params:
        from repro.traces import TraceStore, capture_oracle_trace

        trace_id = params.get(
            "trace_id",
            f"breach-{victim.name}-{oracle.observable}-"
            f"{oracle.mitigation_name}-s{seed}",
        )
        capture_oracle_trace(
            TraceStore(params["store"]),
            trace_id,
            result.probes,
            victim=victim.name,
            observable=oracle.observable,
            mitigation=oracle.mitigation_name,
            seed=seed,
            overwrite=bool(params.get("overwrite", False)),
            extra_meta={"experiment": "breach_recovery"},
        )
    confirmed = sum(
        1 for a, b in zip(result.recovered, victim.secret) if a == b
    )
    return {
        "correct": bool(result.correct),
        "success": bool(result.success),
        "secret_len": secret_len,
        "recovered_len": len(result.recovered),
        "matching_fraction": confirmed / max(1, secret_len),
        "queries": result.queries,
        "queries_per_char": result.queries / max(1, secret_len),
        "probes": len(result.probes),
    }


@register_experiment("memcomp_timing")
def memcomp_timing(params: dict, seed: int) -> dict:
    """The memory-compression candidate distinguisher (KASLR/dedup shape).

    The secret is planted among ``n_candidates - 1`` decoy tokens at a
    seed-derived position; the attacker stores each candidate through
    the sealed oracle and picks the argmin.  Params: ``n_candidates``,
    ``secret_len``, ``charset``, ``reps``, ``observable`` (default
    ``time`` — the Schwarzl observable), ``mitigation``,
    ``mitigation_params``, optional ``store``.
    """
    import random as _random

    from repro.oracle import MemCompTimingDistinguisher
    from repro.workloads.generators import token_secret

    params = dict(params)
    params.setdefault("victim", "memcomp")
    params.setdefault("observable", "time")
    victim, oracle = _oracle_setup(params, seed)

    n_candidates = int(params.get("n_candidates", 12))
    charset = params.get("charset", "alnum_lower")
    secret_len = len(victim.secret)
    decoys = []
    i = 1
    while len(decoys) < n_candidates - 1:
        decoy = token_secret(secret_len, seed=seed * 1_009 + i, charset=charset)
        if decoy != victim.secret:
            decoys.append(decoy)
        i += 1
    true_index = _random.Random(seed ^ 0xDEC0).randrange(n_candidates)
    candidates = decoys[:true_index] + [victim.secret] + decoys[true_index:]

    distinguisher = MemCompTimingDistinguisher(
        oracle, reps=int(params.get("reps", 5))
    )
    result = distinguisher.run(candidates)
    if "store" in params:
        from repro.traces import TraceStore, capture_oracle_trace

        capture_oracle_trace(
            TraceStore(params["store"]),
            params.get(
                "trace_id",
                f"memcomp-{oracle.observable}-"
                f"{oracle.mitigation_name}-s{seed}",
            ),
            result.probes,
            victim=victim.name,
            observable=oracle.observable,
            mitigation=oracle.mitigation_name,
            seed=seed,
            overwrite=bool(params.get("overwrite", False)),
            extra_meta={"experiment": "memcomp_timing"},
        )
    return {
        "correct": bool(result.chosen_index == true_index),
        "n_candidates": n_candidates,
        "margin": result.margin,
        "queries": result.queries,
    }


@register_experiment("oracle_mitigation_sweep")
def oracle_mitigation_sweep(params: dict, seed: int) -> dict:
    """Recovery-rate-versus-overhead across mitigations and observables.

    For every (observable, mitigation) cell: one BREACH recovery run,
    the per-character oracle MI (same plug-in estimator as the ORACLE
    claim), and the observation overhead relative to the unmitigated
    cell on fixed neutral queries.  Overhead is measured through the
    oracle rather than the mitigation transform because the Debreach
    guard lives victim-side (it changes the compressor, not the
    observable).

    Params: ``observables`` (default ``["size", "time"]``),
    ``mitigations`` (default ``["none", "padding", "quantize",
    "jitter", "debreach"]``), ``secret_len`` (default 6),
    ``max_queries`` per cell (default 4000), ``mi_samples`` (default
    24; 0 skips MI), ``reps``, plus the ``breach_recovery`` victim
    knobs.

    The matrix is deliberately diagonal: observable-shaping defenses
    close only the observable they shape (padding/quantize leave the
    *time* channel wide open — the TIME/HEIST lesson — and jitter
    leaves *size* open); only the compressor-level Debreach guard
    closes both.
    """
    from repro.diag.oracle import measure_oracle_channel
    from repro.oracle import make_oracle, make_victim

    observables = list(params.get("observables", ["size", "time"]))
    mitigations = list(
        params.get(
            "mitigations",
            ["none", "padding", "quantize", "jitter", "debreach"],
        )
    )
    secret_len = int(params.get("secret_len", 6))
    mi_samples = int(params.get("mi_samples", 24))
    neutral = [b"probe-%d" % i for i in range(8)]

    metrics: dict[str, float] = {}
    for observable in observables:
        # Unmitigated reference cost for this observable: same victim
        # seed, fresh oracle, fixed neutral queries.
        ref_victim = make_victim(
            "http", seed=seed, secret_len=secret_len
        )
        ref_oracle = make_oracle(ref_victim, observable, "none", seed=seed)
        ref_cost = sum(ref_oracle.observe(q) for q in neutral) / len(neutral)
        for mitigation in mitigations:
            # The identity cells take no knob: the shared
            # ``mitigation_params`` reach only the other cells.
            forwarded = ("charset", "reps", "filler_bytes")
            if mitigation not in ("none", "debreach"):
                forwarded += ("mitigation_params",)
            cell = breach_recovery(
                {
                    **{k: v for k, v in params.items() if k in forwarded},
                    "victim": "http",
                    "observable": observable,
                    "mitigation": mitigation,
                    "secret_len": secret_len,
                    "max_queries": int(params.get("max_queries", 4_000)),
                },
                seed,
            )
            victim = make_victim(
                "http", mitigation=mitigation, seed=seed,
                secret_len=secret_len,
            )
            oracle = make_oracle(victim, observable, mitigation, seed=seed)
            cost = sum(oracle.observe(q) for q in neutral) / len(neutral)
            key = f"{observable}.{mitigation}"
            metrics[f"{key}.correct"] = float(cell["correct"])
            metrics[f"{key}.matching_fraction"] = cell["matching_fraction"]
            metrics[f"{key}.queries"] = float(cell["queries"])
            metrics[f"{key}.overhead_pct"] = 100.0 * (cost / ref_cost - 1.0)
            if mi_samples > 0:
                diag = measure_oracle_channel(
                    observable=observable,
                    mitigation=mitigation,
                    n_samples=mi_samples,
                    seed=seed,
                )
                metrics[f"{key}.mi_bits"] = diag.mi_bits
                metrics[f"{key}.mi_capacity_bits"] = diag.capacity_bits
    return metrics
