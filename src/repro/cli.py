"""Command-line interface to the reproduction.

Mirrors the paper's tooling workflow: point TaintChannel at a target,
run the end-to-end attacks, regenerate the survey, or drive a whole
experiment campaign — all from a shell.

    python -m repro taintchannel zlib --lowercase 600
    python -m repro sgx-attack --random 2000
    python -m repro fingerprint --corpus lipsum --traces 40
    python -m repro survey --size 800
    python -m repro oracle demo --victim http
    python -m repro oracle attack --victim http --observable size
    python -m repro oracle sweep --observables size --mitigations none padding
    python -m repro trace capture --store corpus.trstore --size 600
    python -m repro trace verify --store corpus.trstore
    python -m repro campaign run examples/specs/lzw_noise_sweep.json \
        --out runs/lzw --workers 4 --obs runs/lzw/obs.jsonl
    python -m repro campaign resume runs/lzw
    python -m repro campaign status runs/lzw
    python -m repro report runs/lzw
    python -m repro cluster run examples/specs/lzw_noise_sweep.json \
        --out runs/lzw-cluster --workers 4 --obs-shards
    python -m repro cluster serve --listen unix:/tmp/repro-cluster.sock
    python -m repro cluster submit examples/specs/lzw_noise_sweep.json \
        --connect unix:/tmp/repro-cluster.sock --out runs/lzw-svc
    python -m repro cluster status --connect unix:/tmp/repro-cluster.sock
    python -m repro mitigate survey lzw --random 150
    python -m repro mitigate report lzw --size 120
    python -m repro obs report runs/lzw/obs.jsonl
    python -m repro obs watch 'runs/lzw-cluster/shard-*/obs.jsonl'
    python -m repro obs tail runs/lzw/obs.jsonl -n 40

Every command imports what it needs inside its own function, so
starting the CLI (once for the scheduler, each worker and the report of
a cluster campaign) loads only this file and :mod:`repro.workloads`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.workloads import (
    english_like,
    fingerprint_corpus,
    lowercase_ascii,
    random_bytes,
)


class UsageError(Exception):
    """Unusable command input: :func:`main` prints ``error: <message>``
    on stderr and exits 2."""


# -- idioms shared by the commands ---------------------------------------
def _load_input(args: argparse.Namespace) -> bytes:
    if args.file:
        with open(args.file, "rb") as handle:
            return handle.read()
    if args.lowercase:
        return lowercase_ascii(args.lowercase, seed=args.seed)
    if args.text:
        return english_like(args.text, seed=args.seed)
    return random_bytes(args.random, seed=args.seed)


def _json(doc, sort_keys: bool = True) -> str:
    """The CLI's JSON rendering: two-space indent, newline-terminated."""
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"


def _json_object(text: str, flag: str) -> dict:
    """Parse an option's JSON-object value, or raise :class:`UsageError`."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag} is not JSON: {exc}") from None
    if not isinstance(value, dict):
        raise UsageError(f"{flag} must be a JSON object, got {text}")
    return value


def _emit(text: str, out: Optional[str] = None, wrote: str = "") -> None:
    """Write ``text`` to stdout or, given ``--out``, to that file and
    say so on stdout."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(wrote or f"wrote {out}")


def _progress(args: argparse.Namespace):
    """The ``on_event`` callback: per-job lines unless ``--quiet``."""
    return None if args.quiet else print


def _load_spec(path: str):
    """A campaign spec file; an unreadable or malformed one is a usage
    error."""
    from repro.campaign.spec import CampaignSpec

    try:
        return CampaignSpec.from_json_file(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _campaign_store(path: str):
    """An existing campaign result directory."""
    from repro.campaign import ResultStore

    store = ResultStore(path)
    if not store.exists():
        raise UsageError(f"no campaign manifest in {path}")
    return store


def _trace_store(path: str):
    """An existing trace store."""
    from repro.traces import TraceStore

    store = TraceStore(path)
    if not store.exists():
        raise UsageError(f"no trace store at {path}")
    return store


def _exit_code(counts: dict) -> int:
    """0 when no job failed, 1 when every job failed (``failed``,
    ``timeout`` or ``crashed``), 3 on partial failure — so scripts and
    CI can tell the cases apart.  ``skipped`` jobs do not count."""
    failed = sum(counts.get(k, 0) for k in ("failed", "timeout", "crashed"))
    if not failed:
        return 0
    return 1 if counts.get("ok", 0) == 0 else 3


def _run_fleet(
    args: argparse.Namespace, spec, out: str, resume: bool,
    prefix: str = "", **options,
) -> int:
    """Run ``spec`` on a forked local worker fleet
    (:func:`repro.cluster.run_cluster`) for ``campaign run|resume`` and
    ``cluster run``, then print the ``campaign: … in Ns`` summary (after
    ``prefix``).  Ctrl-C returns 130 with the command that continues
    the campaign."""
    from repro import obs
    from repro.campaign import CampaignResult, SpecMismatchError
    from repro.cluster import run_cluster
    from repro.obs.core import STATE

    if args.obs:
        obs.enable(sink_path=args.obs)
    # The scheduler runs in this process; workers append to its sink
    # (``--obs``, or a ``REPRO_OBS`` one), so one sink holds the whole
    # trace tree.
    try:
        outcome = run_cluster(
            spec, out, workers=args.workers, resume=resume,
            obs_sink=STATE.sink_path if obs.enabled() else None,
            on_event=_progress(args), **options,
        )
    except (SpecMismatchError, TimeoutError) as exc:
        raise UsageError(exc) from None
    except KeyboardInterrupt:
        print(
            f"interrupted — finished jobs are checkpointed; continue "
            f"with `python -m repro campaign resume {out}`",
            file=sys.stderr,
        )
        return 130
    result = CampaignResult.from_outcome(outcome)
    print(prefix + result.summary())
    return _exit_code(result.counts)


def _cluster_control(args: argparse.Namespace, message: dict) -> dict:
    """Send one control message to ``--connect`` and return the reply."""
    from repro.cluster import control_request, parse_endpoint

    try:
        return control_request(parse_endpoint(args.connect), message)
    except OSError as exc:
        raise UsageError(
            f"cannot reach scheduler at {args.connect}: {exc}"
        ) from None


def _require_ok(reply: dict) -> None:
    if reply.get("type") != "ok":
        raise UsageError(reply.get("error", reply))


def _warn_corrupt(corrupt: int) -> None:
    """Say on stderr how many sink lines the reader skipped (stdout
    stays what a clean sink prints)."""
    if corrupt:
        print(
            f"warning: skipped {corrupt} corrupt obs sink "
            f"line{'s' if corrupt != 1 else ''}",
            file=sys.stderr,
        )


def _sink_names(sink) -> str:
    return sink if isinstance(sink, str) else " ".join(sink)


def _load_obs_events(sink) -> list:
    """Read one or many finished JSONL obs sinks (globs allowed)."""
    from repro.obs import open_sinks

    try:
        follower = open_sinks(sink)
    except FileNotFoundError:
        raise UsageError(f"no obs sink at {_sink_names(sink)}") from None
    events = follower.poll(final=True)
    _warn_corrupt(follower.corrupt)
    return events


# -- the paper's attacks and tools ---------------------------------------
def cmd_taintchannel(args: argparse.Namespace) -> int:
    """Run TaintChannel on a named target and render its gadgets."""
    from repro.core.taintchannel import TaintChannel
    from repro.core.taintchannel.tool import target_for

    data = _load_input(args)
    tc = TaintChannel(carry_aware_add=args.carry_aware, max_events=args.max_events)
    try:
        target = target_for(args.target, data)
    except ValueError as exc:
        raise UsageError(exc) from None
    result = tc.analyze(args.target, target)
    print(result.summary())
    gadgets = result.gadgets
    if args.gadget:
        gadgets = [g for g in gadgets if args.gadget in g.site]
    for gadget in sorted(gadgets, key=lambda g: -g.count)[: args.top]:
        print()
        print(tc.render(result, gadget, with_slice=not args.no_slice))
    return 0


def cmd_sgx_attack(args: argparse.Namespace) -> int:
    """Run the Section V extraction attack end to end."""
    from repro.core.zipchannel import AttackConfig, run_attack

    config = AttackConfig(
        use_cat=not args.no_cat,
        use_frame_selection=not args.no_frame_selection,
        background_noise_rate=args.noise,
    )
    outcome = run_attack(_load_input(args), config, mitigated=args.mitigated)
    print(outcome.summary())
    print(
        f"empty observations: {outcome.observations_empty}, "
        f"ambiguous: {outcome.observations_ambiguous}, "
        f"victim accesses: {outcome.victim_accesses}"
    )
    return 0


def cmd_fingerprint(args: argparse.Namespace) -> int:
    """Run the Section VI fingerprinting attack and print the confusion
    matrix."""
    from repro.classify import confusion_matrix, render_confusion
    from repro.core.zipchannel.fingerprint import (
        build_dataset,
        train_classifier,
    )

    corpus = fingerprint_corpus(args.corpus)
    files = list(corpus.values())
    print(f"capturing {args.traces} traces for each of {len(files)} files...")
    x, y, _ = build_dataset(files, traces_per_file=args.traces, seed=args.seed)
    clf, test, metrics = train_classifier(
        x, y, len(files), args.epochs, args.seed
    )
    print(f"test accuracy: {metrics['test_accuracy'] * 100:.1f}% "
          f"(chance {100 / len(files):.1f}%)")
    matrix = confusion_matrix(test[1], clf.predict(test[0]), len(files))
    print(render_confusion(matrix, list(corpus)))
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    """Run the Section IV recovery survey on all three compressors."""
    from repro.campaign.experiments import get_experiment

    m = get_experiment("survey_recovery")({"size": args.size}, args.seed)
    print(f"zlib (lowercase): {m['zlib_accuracy'] * 100:.2f}% of bytes recovered")
    print(f"ncompress: exact input {'found' if m['lzw_exact_found'] else 'NOT found'} "
          f"among {m['lzw_candidates']} candidates")
    print(f"bzip2: {m['bzip2_bit_accuracy'] * 100:.2f}% of bits recovered")
    return 0


# -- trace stores ---------------------------------------------------------
def cmd_trace_capture(args: argparse.Namespace) -> int:
    """Capture victim traces into a trace store."""
    from repro.recovery.survey import SURVEY_TARGETS
    from repro.traces import TraceStore
    from repro.traces.capture import (
        capture_fingerprint_traces,
        capture_survey_traces,
        fingerprint_trace_id,
    )

    store = TraceStore(args.store)
    if args.species == "memory":
        entries = capture_survey_traces(
            store,
            size=args.size,
            seed=args.seed,
            targets=args.targets or SURVEY_TARGETS,
            overwrite=args.overwrite,
        )
    else:
        trace_id = args.id or fingerprint_trace_id(
            args.corpus, args.traces, args.seed
        )
        entries = [
            capture_fingerprint_traces(
                store,
                trace_id,
                corpus=args.corpus,
                traces_per_file=args.traces,
                seed=args.seed,
                overwrite=args.overwrite,
            )
        ]
    for entry in entries:
        print(
            f"captured {entry.trace_id}: {entry.n_records} records, "
            f"{entry.size_bytes} bytes, sha256 {entry.sha256[:12]}"
        )
    return 0


def cmd_trace_list(args: argparse.Namespace) -> int:
    """List the traces in a store."""
    entries = _trace_store(args.store).list(species=args.species)
    for entry in entries:
        meta = entry.meta
        label = (
            meta.get("target") or meta.get("corpus")
            or meta.get("victim") or "-"
        )
        print(
            f"{entry.trace_id:<40} {entry.species:<12} {label:<10} "
            f"{entry.n_records:>9} rec {entry.size_bytes:>10} B"
        )
    if not entries:
        print("(store is empty)")
    return 0


def cmd_trace_verify(args: argparse.Namespace) -> int:
    """Verify stored traces against their hashes; exit 1 on corruption."""
    reports = _trace_store(args.store).verify(args.id)
    for report in reports:
        if report.ok:
            print(f"ok      {report.trace_id}")
        else:
            print(f"CORRUPT {report.trace_id}: {report.problem}")
    if not reports:
        print("(store is empty)")
    return 1 if any(not report.ok for report in reports) else 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Export one trace to JSON for external tooling."""
    from repro.traces import SPECIES_FINGERPRINT, SPECIES_MEMORY, TraceStore

    store = TraceStore(args.store)
    try:
        entry = store.get(args.id)
    except (KeyError, FileNotFoundError):
        raise UsageError(f"no trace {args.id!r} in {args.store}") from None
    cols = store.read_columns(args.id)
    if cols.species == SPECIES_MEMORY:
        keys = ("seq", "kind", "array", "index", "elem_size", "address",
                "cache_line", "site", "tainted")
        rows = zip(
            cols.seq.tolist(), cols.lookup(cols.kind_id).tolist(),
            cols.lookup(cols.array_id).tolist(), cols.index.tolist(),
            cols.elem_size.tolist(), cols.address.tolist(),
            cols.lines().tolist(), cols.lookup(cols.site_id).tolist(),
            cols.addr_tainted.tolist(),
        )
    elif cols.species == SPECIES_FINGERPRINT:
        keys = ("label", "capture_seed", "trace")
        rows = zip(
            cols.labels.tolist(), cols.capture_seeds.tolist(),
            (trace.tolist() for trace in cols.traces),
        )
    else:
        keys = ("step", "label", "probe_len", "observation", "queries")
        rows = zip(
            cols.step.tolist(), cols.lookup(cols.label_id).tolist(),
            cols.probe_len.tolist(), cols.observation.tolist(),
            cols.queries.tolist(),
        )
    records = [dict(zip(keys, row)) for row in rows]
    payload = {"entry": entry.to_dict(), "records": records}
    _emit(
        _json(payload, sort_keys=False),
        args.out,
        f"wrote {len(records)} records to {args.out}",
    )
    return 0


# -- campaigns and the cluster -------------------------------------------
def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Expand a spec file into jobs and run them in parallel."""
    spec = _load_spec(args.spec)
    out = args.out or f"runs/{spec.name}"
    print(
        f"campaign {spec.name!r}: {spec.n_jobs()} jobs of "
        f"{spec.experiment!r} -> {out} "
        f"({args.workers} worker{'s' if args.workers != 1 else ''})"
    )
    return _run_fleet(args, spec, out, resume=args.resume)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted campaign from its result directory: the
    spec is rehydrated from the manifest and recorded jobs are skipped."""
    spec = _campaign_store(args.dir).load_spec()
    return _run_fleet(args, spec, args.dir, resume=True)


def cmd_campaign_list(args: argparse.Namespace) -> int:
    """List the experiments campaigns can run."""
    from repro.campaign import available_experiments

    for name in available_experiments():
        print(name)
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Read-only progress snapshot of a campaign directory (local or
    cluster; live or finished) from its JSONL checkpoint."""
    from repro.campaign import campaign_status, render_status

    status = campaign_status(_campaign_store(args.dir))
    if args.json:
        _emit(_json(status))
    else:
        print(render_status(status))
    return 0


def cmd_cluster_run(args: argparse.Namespace) -> int:
    """One-shot distributed run: scheduler + N forked local workers."""
    from repro.cluster import parse_endpoint

    spec = _load_spec(args.spec)
    out = args.out or f"runs/{spec.name}"
    print(
        f"cluster campaign {spec.name!r}: {spec.n_jobs()} jobs of "
        f"{spec.experiment!r} -> {out} ({args.workers} worker "
        f"process{'es' if args.workers != 1 else ''})"
    )
    return _run_fleet(
        args, spec, out, resume=args.resume, prefix="cluster ",
        endpoint=parse_endpoint(args.listen) if args.listen else None,
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
        obs_shards=args.obs_shards,
        drill_kill_worker=args.drill_kill_worker,
        deadline_seconds=args.deadline,
    )


def cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Run one worker process against a scheduler (started by hand
    against ``cluster serve``; ``cluster run`` forks its own)."""
    from repro.cluster import ClusterWorker, parse_endpoint

    worker = ClusterWorker(
        parse_endpoint(args.connect),
        worker_id=args.worker_id,
        on_event=_progress(args),
        max_jobs=args.max_jobs,
    )
    try:
        worker.run()
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        raise UsageError(f"cannot reach scheduler: {exc}") from None
    return 0


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Run the scheduler as a long-lived campaign service."""
    from repro.cluster import parse_endpoint, serve

    if args.obs:
        from repro import obs

        # A service scheduler runs for days; cap the sink so it rotates
        # (sink.jsonl -> sink.jsonl.1) instead of growing without bound.
        obs.enable(sink_path=args.obs, max_sink_bytes=args.obs_max_bytes)
    serve(
        parse_endpoint(args.listen),
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
        on_event=_progress(args),
    )
    return 0


def cmd_cluster_submit(args: argparse.Namespace) -> int:
    """Queue a campaign on a running ``cluster serve`` scheduler."""
    spec = _load_spec(args.spec)
    out = args.out or f"runs/{spec.name}"
    reply = _cluster_control(
        args,
        {
            "type": "submit",
            "spec": spec.to_dict(),
            "store": out,
            "resume": args.resume,
        },
    )
    _require_ok(reply)
    print(f"submitted {reply['campaign_id']} -> {out}")
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Show campaigns and workers of a running scheduler."""
    reply = _cluster_control(args, {"type": "status"})
    if args.json:
        _emit(_json(reply))
        return 0
    campaigns = reply.get("campaigns", [])
    workers = reply.get("workers", [])
    if not campaigns:
        print("(no campaigns submitted)")
    for c in campaigns:
        counts = ", ".join(
            f"{v} {k}" for k, v in sorted(c.get("counts", {}).items())
        )
        print(
            f"{c['campaign_id']:<28} {c['state']:<10} "
            f"pending {c['pending']:>4}  leased {c['leased']:>3}  "
            f"done {c['done']:>4}  [{counts or 'no outcomes yet'}] "
            f"{c['elapsed_seconds']:.1f}s -> {c['store']}"
        )
    print(
        f"workers: {sum(1 for w in workers if w.get('connected'))} connected, "
        f"{len(workers)} seen"
    )
    return 0


def cmd_cluster_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued/running campaign on the scheduler."""
    _require_ok(
        _cluster_control(args, {"type": "cancel", "campaign_id": args.campaign_id})
    )
    print(f"cancelled {args.campaign_id}")
    return 0


def cmd_cluster_shutdown(args: argparse.Namespace) -> int:
    """Ask a serving scheduler to drain and exit."""
    _cluster_control(args, {"type": "shutdown"})
    print("shutdown requested (scheduler drains running campaigns first)")
    return 0


# -- observability --------------------------------------------------------
def cmd_obs_report(args: argparse.Namespace) -> int:
    """Render counters, histograms, and span timings from a JSONL sink.

    With ``--trace``: the cross-process trace view instead — the
    stitched span tree over all given sinks plus the critical-path
    breakdown of campaign wall-clock."""
    from repro.obs import render_report, render_trace

    events = _load_obs_events(args.sink)
    print(render_trace(events) if args.trace else render_report(events))
    return 0


def cmd_obs_tail(args: argparse.Namespace) -> int:
    """Print the last N events of a JSONL sink, one line each.

    With ``--follow`` keep polling the sink for appended lines (like
    ``tail -f``): the first poll shows its last N events, later polls
    every new one; torn or corrupt lines from killed workers are
    buffered/skipped instead of raising."""
    from repro.obs import format_event, render_tail

    if not args.follow:
        text = render_tail(_load_obs_events(args.sink), n=args.n)
        if text:
            print(text)
        return 0

    from repro.obs.watch import follow

    first = True

    def show(events: list) -> None:
        nonlocal first
        if first:
            events = events[max(0, len(events) - args.n):]
            first = False
        for event in events:
            print(format_event(event))
        sys.stdout.flush()

    _warn_corrupt(
        follow(args.sink, show, interval=args.interval,
               duration=args.duration).corrupt
    )
    return 0


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """Live in-terminal dashboard over a sink being written by a
    running campaign: job progress, rolling metrics sparklines, merged
    counters/histograms, recent warnings."""
    from repro.obs.watch import watch_loop

    state = watch_loop(
        args.sink,
        interval=args.interval,
        duration=args.duration,
        clear=not args.no_clear,
        once=args.once,
    )
    _warn_corrupt(state.corrupt)
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Merge a JSONL sink into one machine-readable document.

    ``--format summary`` (default) is the merged counter/histogram/span
    JSON; ``--format chrome-trace`` converts spans, logs and metric
    points into Chrome Trace Event JSON loadable in ``chrome://tracing``
    and Perfetto."""
    from repro.obs import merge_events, render_chrome_trace

    events = _load_obs_events(args.sink)
    if args.format == "chrome-trace":
        text = render_chrome_trace(events, origin=_sink_names(args.sink))
        _emit(text + "\n", args.out)
    else:
        _emit(_json(merge_events(events)), args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Write the unified campaign dossier: campaign report + metrics
    timeseries (derived from ``results.jsonl``) + obs summary + trace
    critical path, one markdown doc.  Writes nothing into ``args.dir``."""
    from repro.campaign import build_dossier
    from repro.campaign.dossier import read_campaign_sinks

    store = _campaign_store(args.dir)
    sinks, events, corrupt = read_campaign_sinks(store, args.obs or None)
    _warn_corrupt(corrupt)
    _emit(build_dossier(store, sinks=sinks, events=events), args.out)
    return 0


# -- diagnostics ----------------------------------------------------------
def cmd_diag_report(args: argparse.Namespace) -> int:
    """Per-gadget leakage metering: mutual information, per-bit
    accuracy, and Figs. 2-4-style heatmaps — from a live run or (with
    ``--store``) from stored traces, bit-identically."""
    from repro.diag import (
        render_survey_leakage,
        survey_leakage,
        survey_leakage_from_store,
    )

    if args.store:
        store = _trace_store(args.store)
        try:
            diags = survey_leakage_from_store(
                store, args.size, args.seed, prefix=args.prefix
            )
        except (KeyError, FileNotFoundError) as exc:
            raise UsageError(
                f"missing survey trace: {exc} — capture with "
                f"`repro trace capture --store {args.store} "
                f"--size {args.size} --seed {args.seed}`"
            ) from None
        source = f"stored traces ({args.store})"
    else:
        diags = survey_leakage(args.size, args.seed)
        source = "live run"
    print(
        f"# leakage diagnostics — {source}, size={args.size} "
        f"seed={args.seed}"
    )
    print()
    print(render_survey_leakage(diags))
    return 0


def cmd_diag_channel(args: argparse.Namespace) -> int:
    """Channel-health probes: timing margins, eviction-set quality,
    single-step fidelity, optional fingerprint confusion matrix."""
    from repro.diag import channel_health, render_channel_health

    report = channel_health(
        samples=args.samples,
        n_targets=args.targets,
        step_n=args.step_n,
        noise_sigma=args.noise_sigma,
        include_confusion=args.confusion,
    )
    print(render_channel_health(report))
    return 0


def cmd_diag_compare(args: argparse.Namespace) -> int:
    """The claims gate: current claim metrics vs the committed baseline;
    exit 1 when a gated row regressed beyond tolerance, 2 on an
    unreadable gate file, or on a baseline of another suite when there
    is no current file to compare and the claims are re-collected."""
    from repro import gate
    from repro.diag.claims import (
        ABS_EPSILON,
        CLAIMS_PARAMS,
        channel,
        claim_rows,
        collect_claim_metrics,
    )

    try:
        baseline = gate.load(args.baseline, "baseline")
        if args.current:
            current = gate.load(args.current, "metrics file")["metrics"]
        elif baseline["params"] != CLAIMS_PARAMS:
            raise UsageError(
                f"{args.baseline} is not a claims baseline "
                f"(params {json.dumps(baseline['params'], sort_keys=True)})"
            )
        elif args.noise_sigma is None:
            current = collect_claim_metrics()
        else:
            # The noise drill: only the CHANNEL rows move with the
            # cache noise, so only they are re-measured and gated.
            current = claim_rows("CHANNEL", channel(args.noise_sigma))
            rows = baseline["metrics"].items()
            baseline["metrics"] = {k: v for k, v in rows if k.startswith("claim.CHANNEL.")}
        result = gate.compare(
            current,
            baseline,
            args.tolerance,
            abs_epsilon=ABS_EPSILON,
            title="diag compare",
        )
    except gate.GateInputError as exc:
        raise UsageError(exc) from None
    print(result.summary())
    return 0 if result.ok else 1


def cmd_diag_claims(args: argparse.Namespace) -> int:
    """Run every paper claim (EXPERIMENTS.md) into a gate payload (the
    baseline-refresh path: ``--out benchmarks/claims_baseline.json``)."""
    from repro import gate
    from repro.diag import metric_direction
    from repro.diag.claims import CLAIMS_PARAMS, collect_claim_metrics

    metrics = collect_claim_metrics()
    _emit(
        _json(gate.payload(CLAIMS_PARAMS, metrics, metric_direction)),
        args.out,
        f"wrote {len(metrics)} claim metrics to {args.out}",
    )
    return 0


# -- mitigation synthesis -------------------------------------------------
def _span_arg(text: str) -> tuple:
    """argparse type for ``--secret-span LO:HI``."""
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            return int(lo), int(hi)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad span {text!r}; expected LO:HI")


def cmd_mitigate_survey(args: argparse.Namespace) -> int:
    """Scan the vulnerable kernel and print/write its mitigation plan."""
    from repro.mitigations.verify import survey_plan

    plan, result = survey_plan(
        args.target, _load_input(args), secret_spans=args.secret_span
    )
    if args.out or args.json:
        _emit(
            plan.to_json() + "\n",
            args.out,
            f"wrote plan ({len(plan.sites)} sites) to {args.out}",
        )
        return 0
    print(result.summary())
    print()
    print(plan.summary())
    return 0


def cmd_mitigate_apply(args: argparse.Namespace) -> int:
    """Instantiate the patched kernel and compress the input with it."""
    from repro.core.taintchannel.tool import target_for
    from repro.exec.context import NativeContext
    from repro.mitigations.apply import build_kernel
    from repro.mitigations.plan import MitigationPlan
    from repro.mitigations.verify import survey_plan

    data = _load_input(args)
    if args.plan:
        try:
            with open(args.plan, "r", encoding="utf-8") as handle:
                plan = MitigationPlan.from_json(handle.read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"{args.plan}: {exc}") from None
        if plan.target != args.target:
            raise UsageError(
                f"plan targets {plan.target!r}, not {args.target!r}"
            )
    else:
        plan, _ = survey_plan(args.target, data, secret_spans=args.secret_span)
    kernel = build_kernel(args.target, plan, hash_bits=args.hash_bits)
    blob = kernel.run_native(data)
    vuln = target_for(args.target, data)(NativeContext())
    print(plan.summary())
    print()
    print(
        f"mitigated output: {len(blob)} bytes "
        f"(byte-identical to vulnerable kernel: {blob == vuln})"
    )
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(blob)
        print(f"wrote {args.out}")
    return 0


def cmd_mitigate_report(args: argparse.Namespace) -> int:
    """The full loop: scan, plan, apply, re-meter; before/after verdict.

    Exits 1 when a mitigated site still shows tainted accesses or the
    patched output diverges (outside of guard mode, where it may)."""
    from repro.mitigations.verify import verify_mitigation

    report = verify_mitigation(
        args.target,
        size=args.size,
        input_kind=args.input_kind,
        seed=args.seed,
        hash_bits=args.hash_bits,
        secret_spans=args.secret_span,
    )
    if args.json:
        _emit(_json(report.metric_dict()))
    else:
        print(report.summary())
    ok = not report.residual_sites and (
        (report.output_equal and report.decodable)
        or (report.guarded and report.guard_ok)
    )
    return 0 if ok else 1


# -- compression oracles --------------------------------------------------
def _mitigation_knobs(args: argparse.Namespace) -> dict:
    """The ``--mitigation-params`` knobs, checked against the chosen
    ``--mitigation``."""
    from repro.mitigations.padding import get_oracle_mitigation

    if not args.mitigation_params:
        return {}
    knobs = _json_object(args.mitigation_params, "--mitigation-params")
    try:
        get_oracle_mitigation(args.mitigation, **knobs)
    except ValueError as exc:
        raise UsageError(f"--mitigation-params: {exc}") from None
    return knobs


def _oracle_params(args: argparse.Namespace) -> dict:
    """Shared experiment params from parsed oracle-command arguments."""
    params = {
        "victim": args.victim,
        "observable": args.observable,
        "mitigation": args.mitigation,
        "secret_len": args.secret_len,
        "charset": args.charset,
        "reps": args.reps,
        "max_queries": args.max_queries,
    }
    knobs = _mitigation_knobs(args)
    if knobs:
        params["mitigation_params"] = knobs
    if getattr(args, "store", None):
        params["store"] = args.store
        params["overwrite"] = True
    if getattr(args, "strategy", None):
        params["strategy"] = args.strategy
    return params


def cmd_oracle_demo(args: argparse.Namespace) -> int:
    """Show the raw compression-oracle signal: one victim, one true and
    one false guess, and what each observable leaks."""
    from repro.oracle import make_oracle, make_victim
    from repro.recovery import probe_pair

    knobs = _mitigation_knobs(args)
    victim = make_victim(
        args.victim,
        mitigation=args.mitigation,
        seed=args.seed,
        secret_len=args.secret_len,
        charset=args.charset,
    )
    print(
        f"victim: {victim.name} (secret: {len(victim.secret)} chars of "
        f"{args.charset}, mitigation {args.mitigation})"
    )
    if victim.name == "http":
        plain = len(victim.payload(b""))
        packed = victim.size(b"")
        print(f"response: {plain} B plain, {packed} B through gzip "
              f"(the secret shares the compression context with the "
              f"reflected query)")
    true_c = victim.secret[0]
    false_c = ord("q") if true_c != ord("q") else ord("x")
    for label, c in (("true ", true_c), ("false", false_c)):
        oracle = make_oracle(
            victim, args.observable, args.mitigation, seed=args.seed, **knobs
        )
        match, broken = probe_pair(victim.known_prefix, b"", [c])
        delta = oracle.observe(match) - oracle.observe(broken)
        print(
            f"{label} guess {chr(c)!r}: two-guess {args.observable} "
            f"delta {delta:+.1f}"
        )
    print(
        "a negative delta means the guess extended an LZ77 match into "
        "the secret — iterate with `repro oracle attack`"
    )
    return 0


def cmd_oracle_attack(args: argparse.Namespace) -> int:
    """Run the end-to-end BREACH recovery (or print why it failed)."""
    from repro.campaign.experiments import get_experiment

    result = get_experiment("breach_recovery")(_oracle_params(args), args.seed)
    print(
        f"breach recovery: victim={args.victim} observable={args.observable} "
        f"mitigation={args.mitigation}"
    )
    print(
        f"recovered {result['recovered_len']}/{result['secret_len']} chars, "
        f"{result['matching_fraction'] * 100:.0f}% matching ground truth"
    )
    print(
        f"queries: {result['queries']} "
        f"({result['queries_per_char']:.1f}/char over {result['probes']} probes)"
    )
    verdict = "SECRET RECOVERED" if result["correct"] else "recovery failed"
    print(f"verdict: {verdict}")
    return 0


def cmd_oracle_sweep(args: argparse.Namespace) -> int:
    """Recovery-rate-vs-overhead matrix across mitigations/observables."""
    from repro.campaign.experiments import get_experiment

    params = {
        "secret_len": args.secret_len,
        "max_queries": args.max_queries,
        "mi_samples": args.mi_samples,
    }
    if args.observables:
        params["observables"] = args.observables
    if args.mitigations:
        params["mitigations"] = args.mitigations
    metrics = get_experiment("oracle_mitigation_sweep")(params, args.seed)
    if args.json:
        _emit(_json(metrics))
        return 0
    cells = sorted(
        {key.rsplit(".", 1)[0] for key in metrics if key.endswith(".correct")}
    )
    print(
        f"{'observable':<11} {'mitigation':<11} {'recovered':>9} "
        f"{'queries':>8} {'overhead%':>10} {'MI bits':>9}"
    )
    for cell in cells:
        observable, mitigation = cell.split(".", 1)
        mi = metrics.get(f"{cell}.mi_bits")
        cap = metrics.get(f"{cell}.mi_capacity_bits")
        mi_text = "-" if mi is None else f"{mi:.2f}/{cap:.0f}"
        print(
            f"{observable:<11} {mitigation:<11} "
            f"{metrics[f'{cell}.matching_fraction']:>9.2f} "
            f"{metrics[f'{cell}.queries']:>8.0f} "
            f"{metrics[f'{cell}.overhead_pct']:>10.2f} "
            f"{mi_text:>9}"
        )
    return 0


# -- profiling ------------------------------------------------------------
def cmd_perf_profile(args: argparse.Namespace) -> int:
    """cProfile one bench (or any experiment id) and print the stats.

    With ``--sites TARGET``: a per-site access-count profile instead —
    one ADDRESS_ONLY traced run of the named analysis target, hottest
    sites first, keyed by the same site labels the gadget reports and
    ``repro mitigate`` plans use."""
    from repro.perf import profile_bench

    if args.sites:
        from repro.perf import render_site_profile, site_access_profile

        data = random_bytes(args.size, seed=args.seed)
        try:
            rows = site_access_profile(args.sites, data)
        except ValueError as exc:
            raise UsageError(exc) from None
        print(
            render_site_profile(rows, args.sites, len(data), top=args.top)
        )
        return 0
    params = _json_object(args.params, "--params") if args.params else None
    try:
        text = profile_bench(
            args.name if not args.experiment else "",
            sort=args.sort,
            top=args.top,
            experiment=args.experiment,
            params=params,
            seed=args.seed,
        )
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    print(text)
    return 0


# -- the parser -----------------------------------------------------------
def _count_arg(text: str) -> int:
    """argparse type for a count: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


# Arguments declared identically by several commands, declared once
# here; ``build_parser`` adds them by key, where each command lists them.
_SHARED_ARGS = {
    "seed": (("--seed",), {"type": int, "default": 0}),
    "seed=7": (("--seed",), {"type": int, "default": 7}),
    "quiet": (("--quiet",), {"action": "store_true"}),
    "store": (("--store",), {"required": True}),
    "connect": (
        ("--connect",),
        {"default": "tcp:127.0.0.1:7633", "help": "scheduler endpoint"},
    ),
    "spec": (("spec",), {"help": "path to the campaign spec (JSON)"}),
    "dir": (("dir",), {"help": "campaign result directory"}),
    "out-dir": (("--out",), {"help": "result directory (default runs/<name>)"}),
    "out-file": (("--out",), {"help": "output file (default: stdout)"}),
    "resume": (
        ("--resume",),
        {
            "action": "store_true",
            "help": "continue if the directory already holds this campaign",
        },
    ),
    "sinks": (("sink",), {"nargs": "+", "help": "JSONL sink file(s) or glob"}),
    "kernel": (("target",), {"choices": ["zlib", "lzw", "bzip2"]}),
    "size=120": (("--size",), {"type": int, "default": 120, "help": "input bytes"}),
    "hash-bits": (
        ("--hash-bits",),
        {
            "type": int,
            "default": 12,
            "help": "reduced LZW hash-table bits (covered table)",
        },
    ),
    "noise-sigma": (
        ("--noise-sigma",),
        {"type": float, "help": "override the cache timer noise σ"},
    ),
    "secret-span": (
        ("--secret-span",),
        {
            "action": "append",
            "type": _span_arg,
            "metavar": "LO:HI",
            "help": "secret input byte range (repeatable); switches the "
                    "zlib match-finder sites to Debreach-style guarding",
        },
    ),
    "lease": (
        ("--lease-seconds",),
        {
            "type": float,
            "default": 30.0,
            "help": "job lease lifetime; expiry requeues the job",
        },
    ),
    "heartbeat": (
        ("--heartbeat-seconds",),
        {"type": float, "default": 1.0, "help": "worker heartbeat interval"},
    ),
}


def _shared(parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        flags, kwargs = _SHARED_ARGS[key]
        parser.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZipChannel (DSN 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help: str, dest: str):
        return sub.add_parser(name, help=help).add_subparsers(
            dest=dest, required=True
        )

    def command(parent, name: str, func, help: str) -> argparse.ArgumentParser:
        p = parent.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def add_input_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--file", help="read the input/secret from a file")
        p.add_argument("--random", type=int, default=500,
                       help="random input of N bytes (default)")
        p.add_argument("--lowercase", type=int,
                       help="lowercase-ASCII input of N bytes")
        p.add_argument("--text", type=int, help="English-like input of N bytes")
        _shared(p, "seed")

    p = command(sub, "taintchannel", cmd_taintchannel,
                "detect cache side-channel gadgets")
    p.add_argument("target", choices=["zlib", "lzw", "bzip2", "aes"])
    add_input_args(p)
    p.add_argument("--carry-aware", action="store_true",
                   help="conservative carry propagation for additions")
    p.add_argument("--max-events", type=int, default=2_000_000)
    p.add_argument("--gadget", help="only render gadgets whose site matches")
    p.add_argument("--top", type=int, default=3, help="gadget reports to render")
    p.add_argument("--no-slice", action="store_true")

    p = command(sub, "sgx-attack", cmd_sgx_attack, "end-to-end Section V attack")
    add_input_args(p)
    p.add_argument("--no-cat", action="store_true")
    p.add_argument("--no-frame-selection", action="store_true")
    p.add_argument("--noise", type=int, default=2,
                   help="background line touches per victim access")
    p.add_argument("--mitigated", action="store_true",
                   help="attack the Section VIII oblivious victim instead")

    p = command(sub, "fingerprint", cmd_fingerprint,
                "Section VI fingerprinting attack")
    p.add_argument("--corpus", choices=["brotli", "lipsum"], default="brotli")
    p.add_argument("--traces", type=int, default=30)
    p.add_argument("--epochs", type=int, default=60)
    _shared(p, "seed")

    p = command(sub, "survey", cmd_survey, "Section IV recovery survey")
    p.add_argument("--size", type=int, default=600)
    _shared(p, "seed")

    tsub = group("trace", "capture, inspect, and verify stored victim traces",
                 "trace_command")
    t = command(tsub, "capture", cmd_trace_capture,
                "run a victim and store what the attacker saw")
    t.add_argument("--store", required=True,
                   help="trace store directory (conventionally *.trstore)")
    t.add_argument("--species", choices=["memory", "fingerprint"],
                   default="memory")
    t.add_argument("--size", type=int, default=600,
                   help="input bytes per memory-trace target")
    t.add_argument("--targets", nargs="*",
                   choices=["zlib", "lzw", "bzip2"],
                   help="memory-trace targets (default: all three)")
    t.add_argument("--corpus", choices=["brotli", "lipsum"],
                   default="lipsum", help="fingerprint corpus")
    t.add_argument("--traces", type=int, default=10,
                   help="fingerprint captures per corpus file")
    _shared(t, "seed")
    t.add_argument("--id", help="explicit trace id (fingerprint captures)")
    t.add_argument("--overwrite", action="store_true")

    t = command(tsub, "list", cmd_trace_list, "list the traces in a store")
    _shared(t, "store")
    t.add_argument("--species", choices=["memory", "fingerprint", "oracle"])

    t = command(tsub, "verify", cmd_trace_verify,
                "check stored traces against their content hashes")
    _shared(t, "store")
    t.add_argument("--id", help="verify a single trace")

    t = command(tsub, "export", cmd_trace_export, "export one trace as JSON")
    _shared(t, "store")
    t.add_argument("--id", required=True)
    _shared(t, "out-file")

    orsub = group(
        "oracle",
        "compression-ratio/timing oracles: BREACH & memory compression",
        "oracle_command",
    )

    def add_oracle_args(o: argparse.ArgumentParser) -> None:
        o.add_argument("--victim", choices=["http", "memcomp"],
                       default="http")
        o.add_argument("--observable", choices=["size", "time"],
                       default="size")
        o.add_argument("--mitigation",
                       choices=["none", "padding", "quantize", "jitter",
                                "debreach"],
                       default="none")
        o.add_argument("--secret-len", type=int, default=8,
                       help="victim secret length in characters")
        o.add_argument("--charset", default="alnum_lower",
                       help="victim secret charset "
                            "(hex/alnum_lower/alnum/token68)")
        _shared(o, "seed")
        o.add_argument("--reps", type=int, default=2,
                       help="probe repetitions per score")
        o.add_argument("--max-queries", type=int, default=50_000,
                       help="attack give-up budget")
        o.add_argument("--mitigation-params",
                       help='mitigation knobs as JSON, e.g. \'{"quantum": 32}\'')

    o = command(orsub, "demo", cmd_oracle_demo,
                "show the raw true-vs-false guess signal")
    add_oracle_args(o)

    o = command(orsub, "attack", cmd_oracle_attack,
                "end-to-end BREACH recovery through a sealed oracle")
    add_oracle_args(o)
    o.add_argument("--strategy", choices=["dnc", "scan"],
                   help="per-character search (default: per scenario)")
    o.add_argument("--store",
                   help="persist the per-guess probe trace into this store")

    o = command(orsub, "sweep", cmd_oracle_sweep,
                "recovery-rate vs overhead across mitigations")
    o.add_argument("--observables", nargs="*",
                   help="observables to sweep (default: size time)")
    o.add_argument("--mitigations", nargs="*",
                   help="mitigations to sweep (default: all)")
    o.add_argument("--secret-len", type=int, default=6)
    o.add_argument("--max-queries", type=int, default=4_000)
    o.add_argument("--mi-samples", type=int, default=24,
                   help="per-cell oracle-MI samples (0 skips MI)")
    _shared(o, "seed")
    o.add_argument("--json", action="store_true",
                   help="raw metrics JSON instead of the table")

    csub = group(
        "campaign",
        "parallel experiment campaigns with a persistent result store",
        "campaign_command",
    )
    c = command(csub, "run", cmd_campaign_run,
                "run a campaign from a JSON spec file")
    _shared(c, "spec", "out-dir")
    c.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes")
    _shared(c, "resume")
    c.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    c.add_argument("--obs", metavar="SINK",
                   help="record observability events (spans, counters, "
                        "logs) to this JSONL file; workers record to it too")

    c = command(csub, "resume", cmd_campaign_resume,
                "continue an interrupted campaign directory")
    _shared(c, "dir")
    c.add_argument("--workers", type=int, default=1)
    _shared(c, "quiet")
    c.add_argument("--obs", metavar="SINK",
                   help="record observability events to this JSONL file")

    c = command(csub, "status", cmd_campaign_status,
                "read-only done/failed/retried/pending snapshot of a "
                "campaign directory (local or cluster)")
    _shared(c, "dir")
    c.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of text")

    command(csub, "list", cmd_campaign_list, "list registered experiments")

    p = command(sub, "report", cmd_report,
                "unified campaign dossier: results, metrics timeseries, "
                "obs summary, and the trace critical path in one markdown "
                "doc (reads the campaign directory, writes nothing into it)")
    _shared(p, "dir")
    p.add_argument("--obs", nargs="+", metavar="SINK",
                   help="obs sink file(s)/glob(s) to merge (default: "
                        "auto-discover obs.jsonl and shard-*/obs.jsonl "
                        "under the campaign directory)")
    p.add_argument("--out", help="write the dossier here "
                                 "(default: stdout)")

    clsub = group(
        "cluster",
        "distributed campaigns: scheduler, workers, campaign service",
        "cluster_command",
    )
    k = command(clsub, "run", cmd_cluster_run,
                "one-shot distributed run: scheduler + N local workers")
    _shared(k, "spec", "out-dir")
    k.add_argument("--workers", type=int, default=2,
                   help="worker processes to spawn")
    _shared(k, "resume")
    k.add_argument("--listen",
                   help="scheduler endpoint (unix:/path or tcp:host:port; "
                        "default: a Unix socket in a private temp dir)")
    k.add_argument("--obs", metavar="SINK",
                   help="record scheduler and worker obs events "
                        "(spans, counters, trace context) to this one "
                        "JSONL file; `obs report --trace SINK` then "
                        "shows the full campaign span tree")
    k.add_argument("--obs-shards", action="store_true",
                   help="each worker records obs events to "
                        "<out>/shard-<id>/obs.jsonl (watch with "
                        "`obs watch '<out>/shard-*/obs.jsonl'`)")
    k.add_argument("--drill-kill-worker", type=int, metavar="N",
                   help="crash-recovery drill: SIGKILL the first worker "
                        "after N jobs have completed")
    k.add_argument("--deadline", type=float, default=600.0,
                   help="abort the run after this many seconds")
    _shared(k, "quiet", "lease", "heartbeat")

    k = command(clsub, "worker", cmd_cluster_worker,
                "run one worker against a scheduler")
    k.add_argument("--connect", required=True,
                   help="scheduler endpoint (unix:/path or tcp:host:port)")
    k.add_argument("--worker-id",
                   help="stable worker name (default: generated); also "
                        "names the shard directory")
    k.add_argument("--max-jobs", type=int,
                   help="exit after executing N jobs (test hook)")
    _shared(k, "quiet")

    k = command(clsub, "serve", cmd_cluster_serve,
                "long-lived campaign service (submit/status/cancel against it)")
    k.add_argument("--listen", default="tcp:127.0.0.1:7633",
                   help="endpoint to listen on (default tcp:127.0.0.1:7633)")
    k.add_argument("--obs", metavar="SINK",
                   help="record scheduler obs events to this JSONL file")
    k.add_argument("--obs-max-bytes", type=int, metavar="N",
                   help="rotate the sink (SINK -> SINK.1) when it "
                        "would exceed N bytes — bounds disk use for a "
                        "long-running service")
    _shared(k, "quiet", "lease", "heartbeat")

    k = command(clsub, "submit", cmd_cluster_submit,
                "queue a campaign on a running scheduler")
    _shared(k, "spec", "connect", "out-dir")
    k.add_argument("--resume", action="store_true")

    k = command(clsub, "status", cmd_cluster_status,
                "campaigns and workers of a running scheduler")
    _shared(k, "connect")
    k.add_argument("--json", action="store_true",
                   help="raw status payload as JSON")

    k = command(clsub, "cancel", cmd_cluster_cancel, "cancel a campaign by id")
    k.add_argument("campaign_id", help="id from `cluster status`")
    _shared(k, "connect")

    k = command(clsub, "shutdown", cmd_cluster_shutdown,
                "drain and stop a serving scheduler")
    _shared(k, "connect")

    osub = group("obs", "render observability sinks (spans, counters, logs)",
                 "obs_command")
    o = command(osub, "report", cmd_obs_report,
                "counter/histogram tables and span tree from a sink")
    o.add_argument("sink", nargs="+",
                   help="JSONL sink file(s) or glob, e.g. "
                        "'runs/x/shard-*/obs.jsonl'")
    o.add_argument("--trace", action="store_true",
                   help="cross-process trace view: stitched span tree "
                        "over all sinks + critical-path breakdown")

    o = command(osub, "tail", cmd_obs_tail, "print the last N events of a sink")
    _shared(o, "sinks")
    o.add_argument("-n", type=_count_arg, default=20,
                   help="events to show (0: none)")
    o.add_argument("--follow", "-f", action="store_true",
                   help="poll the sink for appended events (tail -f); "
                        "tolerates torn lines from killed workers")
    o.add_argument("--interval", type=float, default=0.5,
                   help="poll interval seconds (with --follow)")
    o.add_argument("--duration", type=float,
                   help="stop following after this many seconds "
                        "(default: until Ctrl-C)")

    o = command(osub, "watch", cmd_obs_watch,
                "live dashboard over a sink a running campaign is writing")
    o.add_argument("sink", nargs="+",
                   help="JSONL sink file(s) or glob (--obs SINK of the "
                        "run, or 'out/shard-*/obs.jsonl' for a cluster)")
    o.add_argument("--interval", type=float, default=0.5,
                   help="poll/redraw interval seconds")
    o.add_argument("--duration", type=float,
                   help="stop watching after this many seconds "
                        "(default: until Ctrl-C)")
    o.add_argument("--once", action="store_true",
                   help="render one frame and exit (CI smoke)")
    o.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen")

    o = command(osub, "export", cmd_obs_export,
                "merge a sink into one JSON summary document")
    _shared(o, "sinks")
    o.add_argument("--format", choices=["summary", "chrome-trace"],
                   default="summary",
                   help="summary: merged counters/histograms/spans; "
                        "chrome-trace: Chrome Trace Event JSON for "
                        "chrome://tracing / Perfetto")
    _shared(o, "out-file")

    dsub = group(
        "diag",
        "channel-quality diagnostics: leakage metering and claims gate",
        "diag_command",
    )
    d = command(dsub, "report", cmd_diag_report,
                "per-gadget MI + per-bit accuracy heatmaps (live or stored)")
    _shared(d, "size=120")
    d.add_argument("--seed", type=int, default=7, help="survey sweep seed")
    d.add_argument("--store",
                   help="meter stored survey traces instead of a live run")
    d.add_argument("--prefix", default="survey",
                   help="trace id prefix in the store")

    d = command(dsub, "channel", cmd_diag_channel,
                "timing margins, eviction-set quality, single-step fidelity")
    d.add_argument("--samples", type=int, default=1500,
                   help="hit/miss timing draws")
    d.add_argument("--targets", type=int, default=4,
                   help="eviction-set targets to build")
    d.add_argument("--step-n", type=int, default=32,
                   help="single-step probe input bytes")
    _shared(d, "noise-sigma")
    d.add_argument("--confusion", action="store_true",
                   help="include a small fingerprint confusion matrix")

    d = command(dsub, "claims", cmd_diag_claims,
                "run every paper claim (EXPERIMENTS.md) into a metrics JSON")
    d.add_argument("--out", help="write here (default: stdout)")

    d = command(dsub, "compare", cmd_diag_compare,
                "claims gate: current claim metrics vs committed baseline")
    d.add_argument("current", nargs="?",
                   help="metrics JSON to check (default: collect the "
                        "claims now)")
    d.add_argument("--baseline", default="benchmarks/claims_baseline.json",
                   help="committed baseline payload")
    d.add_argument("--tolerance", type=float, default=0.05,
                   help="allowed relative regression (default 0.05 = 5%%)")
    d.add_argument("--noise-sigma", type=float,
                   help="re-measure only the CHANNEL claim, with this "
                        "cache noise σ, and gate its rows (the "
                        "regression-injection drill)")

    msub = group(
        "mitigate",
        "gadget-report-driven mitigation synthesis: survey, apply, verify",
        "mitigate_command",
    )
    m = command(msub, "survey", cmd_mitigate_survey,
                "scan the vulnerable kernel and derive its mitigation plan")
    _shared(m, "kernel")
    add_input_args(m)
    _shared(m, "secret-span")
    m.add_argument("--json", action="store_true",
                   help="print the plan as JSON instead of a summary")
    m.add_argument("--out", help="write the plan JSON here (feed back "
                                 "to `mitigate apply --plan`)")

    m = command(msub, "apply", cmd_mitigate_apply,
                "instantiate the patched kernel and compress the input")
    _shared(m, "kernel")
    add_input_args(m)
    _shared(m, "secret-span")
    m.add_argument("--plan", help="plan JSON from `mitigate survey` "
                                  "(default: survey this input now)")
    _shared(m, "hash-bits")
    m.add_argument("--out", help="write the mitigated compressed blob")

    m = command(msub, "report", cmd_mitigate_report,
                "full loop: scan, plan, apply, re-meter; before/after "
                "leakage and the overhead bill")
    _shared(m, "kernel")
    _shared(m, "size=120", "seed=7")
    m.add_argument("--input-kind", choices=["random", "lowercase", "text"],
                   help="input distribution (default: the target's "
                        "survey default)")
    _shared(m, "hash-bits", "secret-span")
    m.add_argument("--json", action="store_true",
                   help="emit the flat metric dict as JSON")

    psub = group("perf", "profile a pinned bench, an experiment or a "
                 "target's access sites", "perf_command")
    q = command(psub, "profile", cmd_perf_profile, "cProfile one bench")
    q.add_argument("name", nargs="?", default="",
                   help="bench name (a DIGEST pin of the claims gate)")
    q.add_argument("--experiment",
                   help="profile a raw experiment id instead")
    q.add_argument("--sites", metavar="TARGET",
                   choices=["zlib", "lzw", "bzip2", "aes"],
                   help="per-site access-count profile of an analysis "
                        "target instead (same site ids as the gadget "
                        "reports)")
    q.add_argument("--size", type=int, default=500,
                   help="input bytes for --sites (default 500)")
    q.add_argument("--params", help="JSON params for --experiment")
    _shared(q, "seed")
    q.add_argument("--sort", default="cumulative",
                   help="pstats sort key (default cumulative)")
    q.add_argument("--top", type=int, default=30)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; not an error.
        # Detach stdout so interpreter shutdown doesn't re-raise on flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
