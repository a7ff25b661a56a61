"""Command-line interface to the reproduction.

Mirrors the paper's tooling workflow: point TaintChannel at a target,
run the end-to-end attacks, regenerate the survey, or drive a whole
experiment campaign — all from a shell.

    python -m repro taintchannel zlib --lowercase 600
    python -m repro sgx-attack --size 2000
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
    python -m repro campaign report runs/lzw
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
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.workloads import english_like, lowercase_ascii, random_bytes

# The shared notion of "analyse target X on input Y" lives with the tool.
from repro.core.taintchannel.tool import target_for as _target_for


def _load_input(args: argparse.Namespace) -> bytes:
    if args.file:
        with open(args.file, "rb") as handle:
            return handle.read()
    if args.lowercase:
        return lowercase_ascii(args.lowercase, seed=args.seed)
    if args.text:
        return english_like(args.text, seed=args.seed)
    return random_bytes(args.random, seed=args.seed)


def cmd_taintchannel(args: argparse.Namespace) -> int:
    """Run TaintChannel on a named target and render its gadgets."""
    from repro.core.taintchannel import TaintChannel

    data = _load_input(args)
    tc = TaintChannel(carry_aware_add=args.carry_aware, max_events=args.max_events)
    try:
        target = _target_for(args.target, data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    from repro.core.zipchannel import AttackConfig, SgxBzip2Attack

    secret = _load_input(args)
    config = AttackConfig(
        use_cat=not args.no_cat,
        use_frame_selection=not args.no_frame_selection,
        background_noise_rate=args.noise,
    )
    if args.mitigated:
        from repro.mitigations import oblivious_histogram

        outcome = SgxBzip2Attack(
            secret, config, victim_histogram=oblivious_histogram
        ).run()
    else:
        outcome = SgxBzip2Attack(secret, config).run()
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
    from repro.classify import (
        MLPClassifier,
        confusion_matrix,
        render_confusion,
        split_dataset,
    )
    from repro.core.zipchannel.fingerprint import build_dataset
    from repro.workloads import brotli_like_corpus, repetitiveness_series

    if args.corpus == "brotli":
        corpus = brotli_like_corpus()
        names, files = list(corpus), list(corpus.values())
    else:
        files = repetitiveness_series()
        names = [f"test_0000{i + 1}.txt" for i in range(len(files))]

    print(f"capturing {args.traces} traces for each of {len(files)} files...")
    x, y, _ = build_dataset(files, traces_per_file=args.traces, seed=args.seed)
    train, val, test = split_dataset(x, y, seed=args.seed + 1)
    clf = MLPClassifier(x.shape[1], len(files), hidden=96, seed=args.seed + 2)
    clf.fit(*train, epochs=args.epochs, x_val=val[0], y_val=val[1])
    print(f"test accuracy: {clf.accuracy(*test) * 100:.1f}% "
          f"(chance {100 / len(files):.1f}%)")
    matrix = confusion_matrix(test[1], clf.predict(test[0]), len(files))
    print(render_confusion(matrix, names))
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


def cmd_trace_capture(args: argparse.Namespace) -> int:
    """Capture victim traces into a trace store."""
    from repro.recovery.survey import SURVEY_TARGETS
    from repro.traces import TraceStore
    from repro.traces.capture import (
        capture_fingerprint_traces,
        capture_survey_traces,
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
        trace_id = args.id or (
            f"fingerprint-{args.corpus}-t{args.traces}-s{args.seed}"
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
    from repro.traces import TraceStore

    store = TraceStore(args.store)
    if not store.exists():
        print(f"error: no trace store at {args.store}", file=sys.stderr)
        return 2
    entries = store.list(species=args.species)
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
    from repro.traces import TraceStore

    store = TraceStore(args.store)
    if not store.exists():
        print(f"error: no trace store at {args.store}", file=sys.stderr)
        return 2
    reports = store.verify(args.id)
    bad = 0
    for report in reports:
        if report.ok:
            print(f"ok      {report.trace_id}")
        else:
            bad += 1
            print(f"CORRUPT {report.trace_id}: {report.problem}")
    if not reports:
        print("(store is empty)")
    return 1 if bad else 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Export one trace to JSON for external tooling."""
    import json

    from repro.traces import (
        SPECIES_FINGERPRINT,
        SPECIES_MEMORY,
        TraceStore,
    )

    store = TraceStore(args.store)
    try:
        entry = store.get(args.id)
    except (KeyError, FileNotFoundError):
        print(f"error: no trace {args.id!r} in {args.store}", file=sys.stderr)
        return 2
    records = []
    if entry.species == SPECIES_MEMORY:
        cols = store.read_columns(args.id)
        kinds = cols.lookup(cols.kind_id)
        arrays = cols.lookup(cols.array_id)
        sites = cols.lookup(cols.site_id)
        lines = cols.lines()
        for i in range(cols.n):
            records.append(
                {
                    "seq": int(cols.seq[i]),
                    "kind": kinds[i],
                    "array": arrays[i],
                    "index": int(cols.index[i]),
                    "elem_size": int(cols.elem_size[i]),
                    "address": int(cols.address[i]),
                    "cache_line": int(lines[i]),
                    "site": sites[i],
                    "tainted": bool(cols.addr_tainted[i]),
                }
            )
    elif entry.species == SPECIES_FINGERPRINT:
        cols = store.read_columns(args.id)
        for i in range(cols.n):
            records.append(
                {
                    "label": int(cols.labels[i]),
                    "capture_seed": int(cols.capture_seeds[i]),
                    "trace": cols.traces[i].tolist(),
                }
            )
    else:
        for record in store.iter_records(args.id):
            records.append(
                {
                    "step": record.step,
                    "label": record.label,
                    "probe_len": record.probe_len,
                    "observation": record.observation,
                    "queries": record.queries,
                }
            )
    payload = {"entry": entry.to_dict(), "records": records}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(records)} records to {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0


def _campaign_pieces(args: argparse.Namespace, spec=None):
    """Build (spec, store, runner) from parsed campaign arguments."""
    from repro.campaign import CampaignRunner, ResultStore
    from repro.campaign.spec import CampaignSpec

    sink = getattr(args, "obs", None)
    if sink:
        from repro import obs

        # Enable here and export the sink path so spawned campaign
        # worker processes activate from the environment and append to
        # the same JSONL file.
        os.environ[obs.ENV_SINK] = sink
        obs.enable(sink_path=sink)
    if spec is None:
        spec = CampaignSpec.from_json_file(args.spec)
    out = getattr(args, "out", None) or f"runs/{spec.name}"
    store = ResultStore(out)
    runner = CampaignRunner(
        spec,
        store,
        workers=args.workers,
        on_event=None if args.quiet else print,
    )
    return spec, store, runner


def _campaign_exit_code(result) -> int:
    """0 if every job succeeded, 1 if every job terminally failed,
    3 on partial failure — so scripts/CI can tell the cases apart."""
    failed = sum(v for k, v in result.counts.items() if k != "ok")
    if not failed:
        return 0
    return 1 if result.counts.get("ok", 0) == 0 else 3


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Expand a spec file into jobs and run them in parallel."""
    from repro.campaign import SpecMismatchError

    spec, store, runner = _campaign_pieces(args)
    print(
        f"campaign {spec.name!r}: {spec.n_jobs()} jobs of "
        f"{spec.experiment!r} -> {store.root} "
        f"({args.workers} worker{'s' if args.workers != 1 else ''})"
    )
    try:
        result = runner.run(resume=args.resume)
    except SpecMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            f"interrupted — finished jobs are checkpointed; continue "
            f"with `python -m repro campaign resume {store.root}`",
            file=sys.stderr,
        )
        # The terminal delivers SIGINT to the whole process group; a
        # second delivery during interpreter shutdown (while atexit
        # joins the dead pool's threads) prints an ignorable traceback.
        # The runner already flushed obs and the store fsyncs per
        # record, so exit hard with the conventional SIGINT code.
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(130)
    print(result.summary())
    return _campaign_exit_code(result)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted campaign from its result directory: the
    spec is rehydrated from the manifest and recorded jobs are skipped."""
    from repro.campaign import ResultStore, SpecMismatchError

    store = ResultStore(args.dir)
    if not store.exists():
        print(f"error: no campaign manifest in {args.dir}", file=sys.stderr)
        return 2
    args.out = args.dir
    try:
        spec, store, runner = _campaign_pieces(args, spec=store.load_spec())
        result = runner.run(resume=True)
    except SpecMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            f"interrupted — finished jobs are checkpointed; continue "
            f"with `python -m repro campaign resume {store.root}`",
            file=sys.stderr,
        )
        # The terminal delivers SIGINT to the whole process group; a
        # second delivery during interpreter shutdown (while atexit
        # joins the dead pool's threads) prints an ignorable traceback.
        # The runner already flushed obs and the store fsyncs per
        # record, so exit hard with the conventional SIGINT code.
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(130)
    print(result.summary())
    return _campaign_exit_code(result)


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Render the per-cell aggregate report for a campaign directory."""
    from repro.campaign import ResultStore, render_report

    store = ResultStore(args.dir)
    if not store.exists():
        print(f"error: no campaign manifest in {args.dir}", file=sys.stderr)
        return 2
    print(render_report(store))
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    """List the experiments campaigns can run."""
    from repro.campaign import available_experiments

    for name in available_experiments():
        print(name)
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Read-only progress snapshot of a campaign directory (local or
    cluster; live or finished) from its JSONL checkpoint."""
    import json as _json

    from repro.campaign import ResultStore, campaign_status, render_status

    store = ResultStore(args.dir)
    if not store.exists():
        print(f"error: no campaign manifest in {args.dir}", file=sys.stderr)
        return 2
    status = campaign_status(store)
    if args.json:
        _json.dump(status, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_status(status))
    return 0


def _cluster_exit_code(counts: dict) -> int:
    """Same convention as local campaigns: 0 all ok, 1 all failed,
    3 partial."""
    failed = sum(
        v for k, v in counts.items() if k in ("failed", "timeout", "crashed")
    )
    if not failed:
        return 0
    return 1 if counts.get("ok", 0) == 0 else 3


def cmd_cluster_run(args: argparse.Namespace) -> int:
    """One-shot distributed run: scheduler + N local worker processes."""
    from repro.campaign import SpecMismatchError
    from repro.campaign.spec import CampaignSpec
    from repro.cluster import parse_endpoint, run_cluster

    spec = CampaignSpec.from_json_file(args.spec)
    out = args.out or f"runs/{spec.name}"
    endpoint = parse_endpoint(args.listen) if args.listen else None
    if args.obs:
        from repro import obs

        # The scheduler runs in this process; workers append to the
        # same file, so one sink holds the whole trace tree.
        obs.enable(sink_path=args.obs)
    print(
        f"cluster campaign {spec.name!r}: {spec.n_jobs()} jobs of "
        f"{spec.experiment!r} -> {out} ({args.workers} worker "
        f"process{'es' if args.workers != 1 else ''})"
    )
    try:
        outcome = run_cluster(
            spec,
            out,
            workers=args.workers,
            endpoint=endpoint,
            resume=args.resume,
            lease_seconds=args.lease_seconds,
            heartbeat_seconds=args.heartbeat_seconds,
            obs_shards=args.obs_shards,
            obs_sink=args.obs,
            drill_kill_worker=args.drill_kill_worker,
            on_event=None if args.quiet else print,
            deadline_seconds=args.deadline,
        )
    except SpecMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counts = outcome["counts"]
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(
        f"cluster campaign: {summary or 'nothing to do'} "
        f"in {outcome['elapsed_seconds']:.2f}s"
    )
    return _cluster_exit_code(counts)


def cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Run one worker process against a scheduler (spawned by
    ``cluster run``, or started by hand against ``cluster serve``)."""
    from repro.cluster import ClusterWorker, parse_endpoint

    worker = ClusterWorker(
        parse_endpoint(args.connect),
        worker_id=args.worker_id,
        on_event=None if args.quiet else print,
        max_jobs=args.max_jobs,
    )
    try:
        worker.run()
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"error: cannot reach scheduler: {exc}", file=sys.stderr)
        return 2
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
        on_event=None if args.quiet else print,
    )
    return 0


def _cluster_control(args: argparse.Namespace, message: dict):
    """Send one control message; returns the reply or None on error."""
    from repro.cluster import control_request, parse_endpoint

    try:
        return control_request(parse_endpoint(args.connect), message)
    except (ConnectionRefusedError, FileNotFoundError, OSError) as exc:
        print(
            f"error: cannot reach scheduler at {args.connect}: {exc}",
            file=sys.stderr,
        )
        return None


def cmd_cluster_submit(args: argparse.Namespace) -> int:
    """Queue a campaign on a running ``cluster serve`` scheduler."""
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_json_file(args.spec)
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
    if reply is None:
        return 2
    if reply.get("type") != "ok":
        print(f"error: {reply.get('error', reply)}", file=sys.stderr)
        return 2
    print(f"submitted {reply['campaign_id']} -> {out}")
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Show campaigns and workers of a running scheduler."""
    import json as _json

    reply = _cluster_control(args, {"type": "status"})
    if reply is None:
        return 2
    if args.json:
        _json.dump(reply, sys.stdout, indent=2, sort_keys=True)
        print()
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
    reply = _cluster_control(
        args, {"type": "cancel", "campaign_id": args.campaign_id}
    )
    if reply is None:
        return 2
    if reply.get("type") != "ok":
        print(f"error: {reply.get('error', reply)}", file=sys.stderr)
        return 2
    print(f"cancelled {args.campaign_id}")
    return 0


def cmd_cluster_shutdown(args: argparse.Namespace) -> int:
    """Ask a serving scheduler to drain and exit."""
    reply = _cluster_control(args, {"type": "shutdown"})
    if reply is None:
        return 2
    print("shutdown requested (scheduler drains running campaigns first)")
    return 0


def _load_obs_events(sink):
    """Read one or many JSONL obs sinks (globs allowed) or None (with a
    stderr message) when nothing matches."""
    from repro.obs import load_events_multi

    try:
        return load_events_multi(sink)
    except FileNotFoundError:
        shown = sink if isinstance(sink, str) else " ".join(sink)
        print(f"error: no obs sink at {shown}", file=sys.stderr)
        return None


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Render counters, histograms, and span timings from a JSONL sink.

    With ``--trace``: the cross-process trace view instead — the
    stitched span tree over all given sinks plus the critical-path
    breakdown of campaign wall-clock."""
    from repro.obs import render_report, render_trace

    events = _load_obs_events(args.sink)
    if events is None:
        return 2
    print(render_trace(events) if args.trace else render_report(events))
    return 0


def cmd_obs_tail(args: argparse.Namespace) -> int:
    """Print the last N events of a JSONL sink, one line each.

    With ``--follow`` keep polling the sink for appended lines (like
    ``tail -f``); truncated or corrupt trailing lines from killed
    workers are buffered/skipped instead of raising."""
    from repro.obs import format_event, render_tail

    if not args.follow:
        events = _load_obs_events(args.sink)
        if events is None:
            return 2
        print(render_tail(events, n=args.n))
        return 0

    import time as _time

    from repro.obs.watch import make_follower

    follower = make_follower(args.sink)
    deadline = (
        None
        if args.duration is None
        else _time.monotonic() + args.duration
    )
    shown = 0
    try:
        while True:
            events = follower.poll()
            if shown == 0 and events:
                events = events[-args.n:]
            for event in events:
                print(format_event(event))
                shown += 1
            sys.stdout.flush()
            if deadline is not None and _time.monotonic() >= deadline:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """Live in-terminal dashboard over a sink being written by a
    running campaign: job progress, rolling metrics sparklines, merged
    counters/histograms, recent warnings."""
    from repro.obs.watch import watch_loop

    watch_loop(
        args.sink,
        interval=args.interval,
        duration=args.duration,
        clear=not args.no_clear,
        once=args.once,
    )
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Merge a JSONL sink into one machine-readable document.

    ``--format summary`` (default) is the merged counter/histogram/span
    JSON; ``--format chrome-trace`` converts spans, logs and metric
    points into Chrome Trace Event JSON loadable in ``chrome://tracing``
    and Perfetto."""
    import json

    from repro.obs import merge_events, render_chrome_trace

    events = _load_obs_events(args.sink)
    if events is None:
        return 2
    if args.format == "chrome-trace":
        shown = args.sink if isinstance(args.sink, str) else " ".join(args.sink)
        text = render_chrome_trace(events, origin=shown)
    else:
        text = json.dumps(merge_events(events), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Write the unified campaign dossier: campaign report + diag
    timeseries + obs summary + trace critical path, one markdown doc."""
    from repro.campaign import ResultStore, build_dossier

    store = ResultStore(args.dir)
    if not store.exists():
        print(f"error: no campaign manifest in {args.dir}", file=sys.stderr)
        return 2
    text = build_dossier(store, sinks=args.obs or None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


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
        from repro.traces import TraceStore

        store = TraceStore(args.store)
        if not store.exists():
            print(f"error: no trace store at {args.store}", file=sys.stderr)
            return 2
        try:
            diags = survey_leakage_from_store(
                store, args.size, args.seed, prefix=args.prefix
            )
        except (KeyError, FileNotFoundError) as exc:
            print(
                f"error: missing survey trace: {exc} — capture with "
                f"`repro trace capture --store {args.store} "
                f"--size {args.size} --seed {args.seed}`",
                file=sys.stderr,
            )
            return 2
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


def cmd_diag_collect(args: argparse.Namespace) -> int:
    """Run the deterministic diagnostics suite and write the metrics
    (the baseline-refresh path: ``--out benchmarks/diag_baseline.json``)."""
    import json as _json

    from repro import gate
    from repro.diag import collect_diag_metrics, metric_direction

    params = {
        "size": args.size,
        "seed": args.seed,
        "samples": args.samples,
        "n_targets": args.targets,
        "step_n": args.step_n,
        "oracle_samples": args.oracle_samples,
    }
    metrics = collect_diag_metrics(
        noise_sigma=args.noise_sigma,
        include_confusion=args.confusion,
        **params,
    )
    payload = gate.payload(params, metrics, metric_direction)
    if args.out:
        gate.save(args.out, payload)
        print(f"wrote {len(metrics)} metrics to {args.out}")
    else:
        _json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_diag_compare(args: argparse.Namespace) -> int:
    """The leakage drift gate: current metrics vs a committed baseline;
    exit 1 when a gated metric regressed beyond tolerance, 2 on an
    unreadable gate file."""
    from repro import gate
    from repro.diag import collect_diag_metrics
    from repro.diag.drift import ABS_EPSILON

    try:
        baseline = gate.load(args.baseline, "baseline")
        if args.current:
            current = gate.load(args.current, "metrics file")["metrics"]
        else:
            # No file given: re-collect now with the baseline's parameters
            # (plus any injected override, e.g. --noise-sigma for drills).
            params = baseline["params"]
            current = collect_diag_metrics(
                size=int(params.get("size", 120)),
                seed=int(params.get("seed", 7)),
                samples=int(params.get("samples", 1500)),
                n_targets=int(params.get("n_targets", 4)),
                step_n=int(params.get("step_n", 32)),
                oracle_samples=int(params.get("oracle_samples", 48)),
                noise_sigma=args.noise_sigma,
            )
        result = gate.compare(
            current,
            baseline,
            args.tolerance,
            abs_epsilon=ABS_EPSILON,
            title="diag compare",
        )
    except gate.GateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.ok else 1


def _parse_spans(raw_spans: Optional[list]) -> list:
    """``--secret-span LO:HI`` values -> [(lo, hi), ...]."""
    spans = []
    for raw in raw_spans or []:
        lo, sep, hi = raw.partition(":")
        if not sep:
            raise ValueError(f"bad span {raw!r}; expected LO:HI")
        spans.append((int(lo), int(hi)))
    return spans


def cmd_mitigate_survey(args: argparse.Namespace) -> int:
    """Scan the vulnerable kernel and print/write its mitigation plan."""
    from repro.mitigations.verify import survey_plan

    data = _load_input(args)
    try:
        spans = _parse_spans(args.secret_span)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan, result = survey_plan(args.target, data, secret_spans=spans or None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(plan.to_json())
            handle.write("\n")
        print(f"wrote plan ({len(plan.sites)} sites) to {args.out}")
        return 0
    if args.json:
        print(plan.to_json())
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
    try:
        spans = _parse_spans(args.secret_span)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = MitigationPlan.from_json(handle.read())
        if plan.target != args.target:
            print(
                f"error: plan targets {plan.target!r}, not {args.target!r}",
                file=sys.stderr,
            )
            return 2
    else:
        plan, _ = survey_plan(args.target, data, secret_spans=spans or None)
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
    import json as _json

    from repro.mitigations.verify import verify_mitigation

    try:
        spans = _parse_spans(args.secret_span)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_mitigation(
        args.target,
        size=args.size,
        input_kind=args.input_kind,
        seed=args.seed,
        hash_bits=args.hash_bits,
        secret_spans=spans or None,
    )
    if args.json:
        _json.dump(
            report.metric_dict(), sys.stdout, indent=2, sort_keys=True
        )
        print()
    else:
        print(report.summary())
    ok = not report.residual_sites and (
        (report.output_equal and report.decodable)
        or (report.guarded and report.guard_ok)
    )
    return 0 if ok else 1


def _oracle_params(args: argparse.Namespace) -> dict:
    """Shared experiment params from parsed oracle-command arguments."""
    import json as _json

    params = {
        "victim": args.victim,
        "observable": args.observable,
        "mitigation": args.mitigation,
        "secret_len": args.secret_len,
        "charset": args.charset,
        "reps": args.reps,
        "max_queries": args.max_queries,
    }
    if args.mitigation_params:
        params["mitigation_params"] = _json.loads(args.mitigation_params)
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
            victim, args.observable, args.mitigation, seed=args.seed
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
    import json as _json

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
        _json.dump(metrics, sys.stdout, indent=2, sort_keys=True)
        print()
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


def cmd_perf_run(args: argparse.Namespace) -> int:
    """Time the bench catalogue into a gate payload (the baseline-refresh
    path: ``--quick --out benchmarks/perf_baseline.json``)."""
    import json as _json

    from repro import gate
    from repro.perf import run_benches

    payload = run_benches(
        names=args.bench or None,
        quick=args.quick,
        repeats=args.repeats,
        on_event=None if args.quiet else _print_stderr,
    )
    if args.out:
        gate.save(args.out, payload)
        print(f"wrote {len(payload['params']['benches'])} benches to {args.out}")
    else:
        _json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _print_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def cmd_perf_compare(args: argparse.Namespace) -> int:
    """The regression gate: compare a current payload (or a fresh run)
    against a baseline file; exit 1 on regression, 2 on an unreadable
    gate file."""
    from repro import gate
    from repro.perf import compare_benches, run_benches

    try:
        baseline = gate.load(args.baseline, "baseline")
        if args.current:
            current = gate.load(args.current, "report")
        else:
            # No report given: run the benches now, with the baseline's pins.
            current = run_benches(
                quick=bool(baseline["params"].get("quick")),
                on_event=None if args.quiet else _print_stderr,
            )
        result = compare_benches(
            current,
            baseline,
            tolerance=args.tolerance,
            normalize=not args.absolute,
        )
    except gate.GateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.ok else 1


def cmd_perf_profile(args: argparse.Namespace) -> int:
    """cProfile one bench (or any experiment id) and print the stats.

    With ``--sites TARGET``: a per-site access-count profile instead —
    one ADDRESS_ONLY traced run of the named analysis target, hottest
    sites first, keyed by the same site labels the gadget reports and
    ``repro mitigate`` plans use."""
    import json as _json

    from repro.perf import profile_bench

    if args.sites:
        from repro.perf import render_site_profile, site_access_profile

        data = random_bytes(args.size, seed=args.seed)
        try:
            rows = site_access_profile(args.sites, data)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            render_site_profile(rows, args.sites, len(data), top=args.top)
        )
        return 0
    try:
        text = profile_bench(
            args.name if not args.experiment else "",
            quick=args.quick,
            sort=args.sort,
            top=args.top,
            experiment=args.experiment,
            params=_json.loads(args.params) if args.params else None,
            seed=args.seed,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(text)
    return 0


def cmd_perf_list(args: argparse.Namespace) -> int:
    """List the bench catalogue with its pinned workloads."""
    from repro.perf import get_bench, available_benches

    for name in available_benches():
        bench = get_bench(name)
        print(
            f"{name:<20} {bench.experiment:<22} "
            f"full={bench.params} quick={bench.resolved_params(True)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZipChannel (DSN 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--file", help="read the input/secret from a file")
        p.add_argument("--random", type=int, default=500,
                       help="random input of N bytes (default)")
        p.add_argument("--lowercase", type=int,
                       help="lowercase-ASCII input of N bytes")
        p.add_argument("--text", type=int, help="English-like input of N bytes")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("taintchannel", help="detect cache side-channel gadgets")
    p.add_argument("target", choices=["zlib", "lzw", "bzip2", "aes"])
    add_input_args(p)
    p.add_argument("--carry-aware", action="store_true",
                   help="conservative carry propagation for additions")
    p.add_argument("--max-events", type=int, default=2_000_000)
    p.add_argument("--gadget", help="only render gadgets whose site matches")
    p.add_argument("--top", type=int, default=3, help="gadget reports to render")
    p.add_argument("--no-slice", action="store_true")
    p.set_defaults(func=cmd_taintchannel)

    p = sub.add_parser("sgx-attack", help="end-to-end Section V attack")
    add_input_args(p)
    p.add_argument("--no-cat", action="store_true")
    p.add_argument("--no-frame-selection", action="store_true")
    p.add_argument("--noise", type=int, default=2,
                   help="background line touches per victim access")
    p.add_argument("--mitigated", action="store_true",
                   help="attack the Section VIII oblivious victim instead")
    p.set_defaults(func=cmd_sgx_attack)

    p = sub.add_parser("fingerprint", help="Section VI fingerprinting attack")
    p.add_argument("--corpus", choices=["brotli", "lipsum"], default="brotli")
    p.add_argument("--traces", type=int, default=30)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("survey", help="Section IV recovery survey")
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser(
        "trace",
        help="capture, inspect, and verify stored victim traces",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser(
        "capture", help="run a victim and store what the attacker saw"
    )
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
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--id", help="explicit trace id (fingerprint captures)")
    t.add_argument("--overwrite", action="store_true")
    t.set_defaults(func=cmd_trace_capture)

    t = tsub.add_parser("list", help="list the traces in a store")
    t.add_argument("--store", required=True)
    t.add_argument("--species", choices=["memory", "fingerprint", "oracle"])
    t.set_defaults(func=cmd_trace_list)

    t = tsub.add_parser(
        "verify", help="check stored traces against their content hashes"
    )
    t.add_argument("--store", required=True)
    t.add_argument("--id", help="verify a single trace")
    t.set_defaults(func=cmd_trace_verify)

    t = tsub.add_parser("export", help="export one trace as JSON")
    t.add_argument("--store", required=True)
    t.add_argument("--id", required=True)
    t.add_argument("--out", help="output file (default: stdout)")
    t.set_defaults(func=cmd_trace_export)

    p = sub.add_parser(
        "oracle",
        help="compression-ratio/timing oracles: BREACH & memory compression",
    )
    orsub = p.add_subparsers(dest="oracle_command", required=True)

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
        o.add_argument("--seed", type=int, default=0)
        o.add_argument("--reps", type=int, default=2,
                       help="probe repetitions per score")
        o.add_argument("--max-queries", type=int, default=50_000,
                       help="attack give-up budget")
        o.add_argument("--mitigation-params",
                       help='mitigation knobs as JSON, e.g. \'{"quantum": 32}\'')

    o = orsub.add_parser(
        "demo", help="show the raw true-vs-false guess signal"
    )
    add_oracle_args(o)
    o.set_defaults(func=cmd_oracle_demo)

    o = orsub.add_parser(
        "attack", help="end-to-end BREACH recovery through a sealed oracle"
    )
    add_oracle_args(o)
    o.add_argument("--strategy", choices=["dnc", "scan"],
                   help="per-character search (default: per scenario)")
    o.add_argument("--store",
                   help="persist the per-guess probe trace into this store")
    o.set_defaults(func=cmd_oracle_attack)

    o = orsub.add_parser(
        "sweep", help="recovery-rate vs overhead across mitigations"
    )
    o.add_argument("--observables", nargs="*",
                   help="observables to sweep (default: size time)")
    o.add_argument("--mitigations", nargs="*",
                   help="mitigations to sweep (default: all)")
    o.add_argument("--secret-len", type=int, default=6)
    o.add_argument("--max-queries", type=int, default=4_000)
    o.add_argument("--mi-samples", type=int, default=24,
                   help="per-cell oracle-MI samples (0 skips MI)")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--json", action="store_true",
                   help="raw metrics JSON instead of the table")
    o.set_defaults(func=cmd_oracle_sweep)

    p = sub.add_parser(
        "campaign",
        help="parallel experiment campaigns with a persistent result store",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="run a campaign from a JSON spec file")
    c.add_argument("spec", help="path to the campaign spec (JSON)")
    c.add_argument("--out", help="result directory (default runs/<name>)")
    c.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes")
    c.add_argument("--resume", action="store_true",
                   help="continue if the directory already holds this campaign")
    c.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    c.add_argument("--obs", metavar="SINK",
                   help="record observability events (spans, counters, "
                        "logs) to this JSONL file; workers inherit it")
    c.set_defaults(func=cmd_campaign_run)

    c = csub.add_parser(
        "resume", help="continue an interrupted campaign directory"
    )
    c.add_argument("dir", help="campaign result directory")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--quiet", action="store_true")
    c.add_argument("--obs", metavar="SINK",
                   help="record observability events to this JSONL file")
    c.set_defaults(func=cmd_campaign_resume)

    c = csub.add_parser("report", help="aggregate a campaign into markdown")
    c.add_argument("dir", help="campaign result directory")
    c.set_defaults(func=cmd_campaign_report)

    c = csub.add_parser(
        "status",
        help="read-only done/failed/retried/pending snapshot of a "
             "campaign directory (local or cluster)",
    )
    c.add_argument("dir", help="campaign result directory")
    c.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of text")
    c.set_defaults(func=cmd_campaign_status)

    c = csub.add_parser("list", help="list registered experiments")
    c.set_defaults(func=cmd_campaign_list)

    p = sub.add_parser(
        "report",
        help="unified campaign dossier: results, diag timeseries, obs "
             "summary, and the trace critical path in one markdown doc",
    )
    p.add_argument("dir", help="campaign result directory")
    p.add_argument("--obs", nargs="+", metavar="SINK",
                   help="obs sink file(s)/glob(s) to merge (default: "
                        "auto-discover obs.jsonl and shard-*/obs.jsonl "
                        "under the campaign directory)")
    p.add_argument("--out", help="write the dossier here "
                                 "(default: stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "cluster",
        help="distributed campaigns: scheduler, workers, campaign service",
    )
    clsub = p.add_subparsers(dest="cluster_command", required=True)

    def add_cluster_tuning(k: argparse.ArgumentParser) -> None:
        k.add_argument("--lease-seconds", type=float, default=30.0,
                       help="job lease lifetime; expiry requeues the job")
        k.add_argument("--heartbeat-seconds", type=float, default=1.0,
                       help="worker heartbeat interval")

    k = clsub.add_parser(
        "run",
        help="one-shot distributed run: scheduler + N local workers",
    )
    k.add_argument("spec", help="path to the campaign spec (JSON)")
    k.add_argument("--out", help="result directory (default runs/<name>)")
    k.add_argument("--workers", type=int, default=2,
                   help="worker processes to spawn")
    k.add_argument("--resume", action="store_true",
                   help="continue if the directory already holds this campaign")
    k.add_argument("--listen",
                   help="scheduler endpoint (unix:/path or tcp:host:port; "
                        "default: ephemeral localhost TCP)")
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
    k.add_argument("--quiet", action="store_true")
    add_cluster_tuning(k)
    k.set_defaults(func=cmd_cluster_run)

    k = clsub.add_parser(
        "worker", help="run one worker against a scheduler"
    )
    k.add_argument("--connect", required=True,
                   help="scheduler endpoint (unix:/path or tcp:host:port)")
    k.add_argument("--worker-id",
                   help="stable worker name (default: generated); also "
                        "names the shard directory")
    k.add_argument("--max-jobs", type=int,
                   help="exit after executing N jobs (test hook)")
    k.add_argument("--quiet", action="store_true")
    k.set_defaults(func=cmd_cluster_worker)

    k = clsub.add_parser(
        "serve",
        help="long-lived campaign service (submit/status/cancel against it)",
    )
    k.add_argument("--listen", default="tcp:127.0.0.1:7633",
                   help="endpoint to listen on (default tcp:127.0.0.1:7633)")
    k.add_argument("--obs", metavar="SINK",
                   help="record scheduler obs events to this JSONL file")
    k.add_argument("--obs-max-bytes", type=int, metavar="N",
                   help="rotate the sink (SINK -> SINK.1) when it "
                        "would exceed N bytes — bounds disk use for a "
                        "long-running service")
    k.add_argument("--quiet", action="store_true")
    add_cluster_tuning(k)
    k.set_defaults(func=cmd_cluster_serve)

    k = clsub.add_parser(
        "submit", help="queue a campaign on a running scheduler"
    )
    k.add_argument("spec", help="path to the campaign spec (JSON)")
    k.add_argument("--connect", default="tcp:127.0.0.1:7633",
                   help="scheduler endpoint")
    k.add_argument("--out", help="result directory (default runs/<name>)")
    k.add_argument("--resume", action="store_true")
    k.set_defaults(func=cmd_cluster_submit)

    k = clsub.add_parser(
        "status", help="campaigns and workers of a running scheduler"
    )
    k.add_argument("--connect", default="tcp:127.0.0.1:7633",
                   help="scheduler endpoint")
    k.add_argument("--json", action="store_true",
                   help="raw status payload as JSON")
    k.set_defaults(func=cmd_cluster_status)

    k = clsub.add_parser("cancel", help="cancel a campaign by id")
    k.add_argument("campaign_id", help="id from `cluster status`")
    k.add_argument("--connect", default="tcp:127.0.0.1:7633",
                   help="scheduler endpoint")
    k.set_defaults(func=cmd_cluster_cancel)

    k = clsub.add_parser(
        "shutdown", help="drain and stop a serving scheduler"
    )
    k.add_argument("--connect", default="tcp:127.0.0.1:7633",
                   help="scheduler endpoint")
    k.set_defaults(func=cmd_cluster_shutdown)

    p = sub.add_parser(
        "obs",
        help="render observability sinks (spans, counters, logs)",
    )
    osub = p.add_subparsers(dest="obs_command", required=True)

    o = osub.add_parser(
        "report", help="counter/histogram tables and span tree from a sink"
    )
    o.add_argument("sink", nargs="+",
                   help="JSONL sink file(s) or glob, e.g. "
                        "'runs/x/shard-*/obs.jsonl'")
    o.add_argument("--trace", action="store_true",
                   help="cross-process trace view: stitched span tree "
                        "over all sinks + critical-path breakdown")
    o.set_defaults(func=cmd_obs_report)

    o = osub.add_parser("tail", help="print the last N events of a sink")
    o.add_argument("sink", nargs="+",
                   help="JSONL sink file(s) or glob")
    o.add_argument("-n", type=int, default=20, help="events to show")
    o.add_argument("--follow", "-f", action="store_true",
                   help="poll the sink for appended events (tail -f); "
                        "tolerates torn lines from killed workers")
    o.add_argument("--interval", type=float, default=0.5,
                   help="poll interval seconds (with --follow)")
    o.add_argument("--duration", type=float,
                   help="stop following after this many seconds "
                        "(default: until Ctrl-C)")
    o.set_defaults(func=cmd_obs_tail)

    o = osub.add_parser(
        "watch",
        help="live dashboard over a sink a running campaign is writing",
    )
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
    o.set_defaults(func=cmd_obs_watch)

    o = osub.add_parser(
        "export", help="merge a sink into one JSON summary document"
    )
    o.add_argument("sink", nargs="+",
                   help="JSONL sink file(s) or glob")
    o.add_argument("--format", choices=["summary", "chrome-trace"],
                   default="summary",
                   help="summary: merged counters/histograms/spans; "
                        "chrome-trace: Chrome Trace Event JSON for "
                        "chrome://tracing / Perfetto")
    o.add_argument("--out", help="output file (default: stdout)")
    o.set_defaults(func=cmd_obs_export)

    p = sub.add_parser(
        "diag",
        help="channel-quality diagnostics: leakage metering and drift gate",
    )
    dsub = p.add_subparsers(dest="diag_command", required=True)

    d = dsub.add_parser(
        "report",
        help="per-gadget MI + per-bit accuracy heatmaps (live or stored)",
    )
    d.add_argument("--size", type=int, default=120, help="input bytes")
    d.add_argument("--seed", type=int, default=7, help="survey sweep seed")
    d.add_argument("--store",
                   help="meter stored survey traces instead of a live run")
    d.add_argument("--prefix", default="survey",
                   help="trace id prefix in the store")
    d.set_defaults(func=cmd_diag_report)

    d = dsub.add_parser(
        "channel",
        help="timing margins, eviction-set quality, single-step fidelity",
    )
    d.add_argument("--samples", type=int, default=1500,
                   help="hit/miss timing draws")
    d.add_argument("--targets", type=int, default=4,
                   help="eviction-set targets to build")
    d.add_argument("--step-n", type=int, default=32,
                   help="single-step probe input bytes")
    d.add_argument("--noise-sigma", type=float,
                   help="override the cache timer noise σ")
    d.add_argument("--confusion", action="store_true",
                   help="include a small fingerprint confusion matrix")
    d.set_defaults(func=cmd_diag_channel)

    d = dsub.add_parser(
        "collect",
        help="run the deterministic diag suite into a metrics JSON",
    )
    d.add_argument("--out", help="write here (default: stdout)")
    d.add_argument("--size", type=int, default=120)
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--samples", type=int, default=1500)
    d.add_argument("--targets", type=int, default=4)
    d.add_argument("--step-n", type=int, default=32)
    d.add_argument("--oracle-samples", type=int, default=48,
                   help="oracle-MI samples per mitigation (0 skips)")
    d.add_argument("--noise-sigma", type=float,
                   help="override the cache timer noise σ")
    d.add_argument("--confusion", action="store_true")
    d.set_defaults(func=cmd_diag_collect)

    d = dsub.add_parser(
        "compare",
        help="drift gate: current metrics vs committed baseline",
    )
    d.add_argument("current", nargs="?",
                   help="metrics JSON to check (default: collect now "
                        "with the baseline's parameters)")
    d.add_argument("--baseline", default="benchmarks/diag_baseline.json",
                   help="committed baseline payload")
    d.add_argument("--tolerance", type=float, default=0.05,
                   help="allowed relative regression (default 0.05 = 5%%)")
    d.add_argument("--noise-sigma", type=float,
                   help="override the cache noise σ for the fresh "
                        "collection (regression-injection drills)")
    d.set_defaults(func=cmd_diag_compare)

    p = sub.add_parser(
        "mitigate",
        help="gadget-report-driven mitigation synthesis: survey, apply, "
             "verify",
    )
    msub = p.add_subparsers(dest="mitigate_command", required=True)

    def add_span_args(m: argparse.ArgumentParser) -> None:
        m.add_argument(
            "--secret-span", action="append", metavar="LO:HI",
            help="secret input byte range (repeatable); switches the "
                 "zlib match-finder sites to Debreach-style guarding",
        )

    m = msub.add_parser(
        "survey",
        help="scan the vulnerable kernel and derive its mitigation plan",
    )
    m.add_argument("target", choices=["zlib", "lzw", "bzip2"])
    add_input_args(m)
    add_span_args(m)
    m.add_argument("--json", action="store_true",
                   help="print the plan as JSON instead of a summary")
    m.add_argument("--out", help="write the plan JSON here (feed back "
                                 "to `mitigate apply --plan`)")
    m.set_defaults(func=cmd_mitigate_survey)

    m = msub.add_parser(
        "apply",
        help="instantiate the patched kernel and compress the input",
    )
    m.add_argument("target", choices=["zlib", "lzw", "bzip2"])
    add_input_args(m)
    add_span_args(m)
    m.add_argument("--plan", help="plan JSON from `mitigate survey` "
                                  "(default: survey this input now)")
    m.add_argument("--hash-bits", type=int, default=12,
                   help="reduced LZW hash-table bits (covered table)")
    m.add_argument("--out", help="write the mitigated compressed blob")
    m.set_defaults(func=cmd_mitigate_apply)

    m = msub.add_parser(
        "report",
        help="full loop: scan, plan, apply, re-meter; before/after "
             "leakage and the overhead bill",
    )
    m.add_argument("target", choices=["zlib", "lzw", "bzip2"])
    m.add_argument("--size", type=int, default=120, help="input bytes")
    m.add_argument("--seed", type=int, default=7)
    m.add_argument("--input-kind", choices=["random", "lowercase", "text"],
                   help="input distribution (default: the target's "
                        "survey default)")
    m.add_argument("--hash-bits", type=int, default=12,
                   help="reduced LZW hash-table bits (covered table)")
    add_span_args(m)
    m.add_argument("--json", action="store_true",
                   help="emit the flat metric dict as JSON")
    m.set_defaults(func=cmd_mitigate_report)

    p = sub.add_parser(
        "perf",
        help="time the bench catalogue and gate regressions",
    )
    psub = p.add_subparsers(dest="perf_command", required=True)

    q = psub.add_parser("run", help="time benches into a gate payload")
    q.add_argument("--bench", action="append",
                   help="bench name (repeatable; default: all)")
    q.add_argument("--quick", action="store_true",
                   help="CI-sized workloads instead of the full pins")
    q.add_argument("--repeats", type=int,
                   help="override per-bench timing repetitions")
    q.add_argument("--out", help="write the payload here (default: stdout)")
    q.add_argument("--quiet", action="store_true")
    q.set_defaults(func=cmd_perf_run)

    q = psub.add_parser(
        "compare", help="regression gate: current report vs baseline"
    )
    q.add_argument("current", nargs="?",
                   help="`perf run` payload to check (default: run "
                        "benches now)")
    q.add_argument("--baseline", required=True,
                   help="committed baseline payload")
    q.add_argument("--tolerance", type=float, default=0.2,
                   help="allowed slowdown fraction (default 0.2 = 20%%)")
    q.add_argument("--absolute", action="store_true",
                   help="raw time ratios (same-machine comparisons only)")
    q.add_argument("--quiet", action="store_true")
    q.set_defaults(func=cmd_perf_compare)

    q = psub.add_parser("profile", help="cProfile one bench")
    q.add_argument("name", nargs="?", default="",
                   help="bench name from `perf list`")
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
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--quick", action="store_true")
    q.add_argument("--sort", default="cumulative",
                   help="pstats sort key (default cumulative)")
    q.add_argument("--top", type=int, default=30)
    q.set_defaults(func=cmd_perf_profile)

    q = psub.add_parser("list", help="list the bench catalogue")
    q.set_defaults(func=cmd_perf_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; not an error.
        # Detach stdout so interpreter shutdown doesn't re-raise on flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
