"""The four benchmark workloads.

Each workload is a closed-loop batch job driven from one process: an
iteration starts only when the previous one has finished.  A workload

* builds its inputs from the seed and warms up in :meth:`setup`;
* runs one measured iteration in :meth:`iteration`, timing its stages
  and checking the program's outputs;
* names, in :meth:`instrument`, the public functions whose calls the
  traced run wraps in spans, and turns the spans and the program's own
  artifacts into per-layer metrics in :meth:`layer_metrics`.

The program is driven only through its public API and its CLI.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from spans import SpanRecorder

# Wall-clock bounds for the CLI children of the campaign workloads.  A
# healthy 144-job campaign takes a few seconds; a fleet whose workers
# cannot start would otherwise wait out the scheduler's 600 s default.
CLUSTER_DEADLINE_S = 40.0
CHILD_TIMEOUT_S = 60.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class IterationResult:
    """What one iteration did, how long its stages took, and whether its
    outputs were right."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0  # reference-kernel time around the iteration
    stages: dict = field(default_factory=dict)  # stage -> [seconds, ...]
    counts: dict = field(default_factory=dict)  # exact work counts
    values: dict = field(default_factory=dict)  # other per-iteration numbers
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        """Count ``ops`` operations; all of them fail when ``ok`` is false."""
        self.attempted += ops
        if not ok:
            self.failures.append((ops, what))

    @property
    def failed(self) -> int:
        return sum(ops for ops, _ in self.failures)

    def stage_s(self, name: str) -> float:
        return sum(self.stages.get(name, ()))


def median_of(results: list[IterationResult], fn: Callable) -> float:
    return statistics.median(fn(r) for r in results)


class Workload:
    """Base of every workload: stage timing and span capture."""

    name = ""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root = root
        self.seed = seed
        self.work = work
        self.recorder: Optional[SpanRecorder] = None
        self._current: Optional[IterationResult] = None

    # -- hooks ----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def body(self, index: int, result: IterationResult) -> None:
        raise NotImplementedError

    def cleanup(self, index: int) -> None:
        """Remove what one iteration left on disk (not timed)."""

    def finish(self, result: IterationResult) -> None:
        """Checks made once, after the measured iterations."""

    def instrument(self, recorder: SpanRecorder) -> None:
        """Install the traced run's wrappers."""

    def end_to_end(self, results: list[IterationResult]) -> dict:
        """The workload's named stage metrics from untraced iterations."""
        return {}

    def layer_metrics(
        self, recorder: SpanRecorder, traced: list[tuple[int, IterationResult]]
    ) -> dict:
        return {}

    # -- running an iteration ---------------------------------------------
    def stage(self, name: str, fn: Callable, *args, **kwargs):
        """Run one timed stage of the current iteration."""
        if self.recorder is not None:
            fn = self.recorder.wrap(name, fn)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self._current.stages.setdefault(name, []).append(
            time.perf_counter() - t0
        )
        return out

    def iteration(self, index: int, recorder: Optional[SpanRecorder]) -> IterationResult:
        result = IterationResult()
        self._current = result
        self.recorder = recorder
        if recorder is not None:
            self.instrument(recorder)
            root = recorder.begin_iteration(index)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            self.body(index, result)
        finally:
            result.wall_s = time.perf_counter() - t0
            result.cpu_s = cpu_seconds() - cpu0
            if recorder is not None:
                recorder.end_iteration(root)
                recorder.uninstall()
            self.recorder = None
            self._current = None
        self.cleanup(index)
        os.sync()  # write back what the iteration left before the next starts
        return result


def stage_median(results, name: str) -> float:
    return median_of(results, lambda r: r.stage_s(name))


def median_self_seconds(recorder: SpanRecorder, traced) -> dict[str, float]:
    """Per span name, the median over traced iterations of its self time."""
    own = [recorder.self_seconds(i) for i, _ in traced]
    return {name: statistics.median(o[name] for o in own) for name in recorder.names}


# ---------------------------------------------------------------------
# sgx_extract
# ---------------------------------------------------------------------


class SgxExtract(Workload):
    """Sec. V-E: Prime+Probe extraction of a random secret from the
    simulated SGX bzip2 histogram loop, then bzip2 block recovery."""

    name = "sgx_extract"
    SECRET_BYTES = 10_000
    WARMUP_BYTES = 2_000

    def setup(self) -> None:
        from repro.core.zipchannel.sgx_attack import SgxBzip2Attack
        from repro.workloads import random_bytes

        self.secret = random_bytes(self.SECRET_BYTES, seed=self.seed)
        SgxBzip2Attack(random_bytes(self.WARMUP_BYTES, seed=self.seed + 1)).run()

    def _attack(self):
        from repro.core.zipchannel.sgx_attack import SgxBzip2Attack

        attack = SgxBzip2Attack(self.secret)
        return attack, attack.run()

    def body(self, index: int, result: IterationResult) -> None:
        attack, outcome = self.stage("sgx.attack", self._attack)
        n = len(self.secret)
        result.check(
            bytes(outcome.recovered.values) == self.secret,
            f"recovered bytes differ from the secret "
            f"(bit accuracy {outcome.bit_accuracy:.6f})",
        )
        result.check(
            outcome.faults == 3 * n,
            f"memsys.faults {outcome.faults} != 3 x {n} secret bytes",
        )
        stats = attack.cache.stats
        result.counts.update(
            {
                "cache.accesses": stats["hits"] + stats["misses"],
                "cache.hits": stats["hits"],
                "cache.misses": stats["misses"],
                "cache.evictions": stats["evictions"],
                "memsys.faults": attack.space.fault_count,
                "sidechannel.frame_remaps": outcome.frame_remaps,
            }
        )
        useful = n - outcome.observations_empty - outcome.observations_ambiguous
        result.values["sgx.useful_ratio"] = useful / n

    def instrument(self, recorder: SpanRecorder) -> None:
        from repro.cache.model import Cache
        from repro.cache.noise import BackgroundNoise, OsPollution
        from repro.memsys.paging import AddressSpace
        from repro.recovery.bzip2_recover import recover_bzip2_block
        from repro.sgx.enclave import Enclave
        from repro.sidechannel.frame_selection import FrameSelector
        from repro.sidechannel.prime_probe import PrimeProbe
        from repro.sidechannel.single_step import SingleStepper

        for attr in (
            "access", "access_timed", "access_silent", "access_many",
            "access_many_timed", "access_many_silent", "flush",
        ):
            recorder.patch_method(Cache, attr, "cache")
        recorder.patch_method(BackgroundNoise, "step", "cache.noise")
        recorder.patch_method(OsPollution, "fault_entry", "cache.noise")
        for attr in ("translate", "mprotect", "remap"):
            recorder.patch_method(AddressSpace, attr, "memsys")
        recorder.patch_method(Enclave, "touch", "sgx.enclave")
        recorder.patch_method(PrimeProbe, "prime", "sidechannel.prime_probe")
        recorder.patch_method(PrimeProbe, "probe", "sidechannel.prime_probe")
        recorder.patch_method(FrameSelector, "vet", "sidechannel.frame_select")
        recorder.patch_method(
            SingleStepper, "handle_fault", "sidechannel.single_step"
        )
        recorder.patch_function(recover_bzip2_block, "recovery.bzip2")

    def end_to_end(self, results):
        return {
            "sgx.leak_Bps": self.SECRET_BYTES / stage_median(results, "sgx.attack"),
        }

    def layer_metrics(self, recorder, traced):
        out = dict(traced[0][1].counts)
        own = median_self_seconds(recorder, traced)
        for layer in (
            "cache", "cache.noise", "memsys", "sgx.enclave",
            "sidechannel.prime_probe", "sidechannel.frame_select",
            "sidechannel.single_step", "recovery.bzip2",
        ):
            out[f"{layer}.self_s"] = own[layer]
        calls = recorder.calls(traced[0][0])
        out["sgx.enclave.touches"] = calls["sgx.enclave"]
        out["sidechannel.prime_probe.calls"] = calls["sidechannel.prime_probe"]
        out["sgx.useful_ratio"] = traced[0][1].values["sgx.useful_ratio"]
        return out


# ---------------------------------------------------------------------
# trace_pipeline
# ---------------------------------------------------------------------

# Gadget sites TaintChannel must report per target on the scan inputs,
# and sites it may add: LZW's secondary probe runs, and leaks, only when
# the input hits a hash collision (1,000 random bytes from seed 52 do).
GADGET_SITES = {
    "zlib": ({"deflate_slow/head[ins_h]", "_tr_tally/dyn_ltree[c].Freq++"}, set()),
    "lzw": (
        {"compress/htab[hp]", "compress/codetab[hp]"},
        {"compress/htab[hp] (secondary probe)"},
    ),
    "bzip2": ({"mainSort/ftab[j]++"}, set()),
}
SCAN_INPUTS = (("zlib", "lowercase"), ("lzw", "random"), ("bzip2", "random"))


class TracePipeline(Workload):
    """Capture once, analyse many, for both trace species: TaintChannel
    scans, Sec. IV survey capture and 3 replays, Fig. 7 fingerprint
    capture and classifier, then a store integrity check."""

    name = "trace_pipeline"
    SCAN_BYTES = 1_000
    SURVEY_BYTES = 4_000
    REPLAYS = 3
    CORPUS = "brotli"
    TRACES_PER_FILE = 10

    def setup(self) -> None:
        from repro.campaign.experiments import make_input

        self.scan_inputs = [
            (target, make_input(kind, self.SCAN_BYTES, self.seed))
            for target, kind in SCAN_INPUTS
        ]
        self._warm_up()

    def _warm_up(self) -> None:
        """Every stage once at a small size (imports, lazily built
        tables, the classifier's numeric libraries)."""
        from repro.campaign.experiments import make_input
        from repro.core.taintchannel import run_gadget_scan
        from repro.traces import TraceStore
        from repro.traces.capture import (
            capture_fingerprint_traces,
            capture_survey_traces,
        )
        from repro.traces.replay import (
            fingerprint_experiment_from_store,
            survey_from_store,
        )

        path = self.work / "warmup-store"
        shutil.rmtree(path, ignore_errors=True)
        store = TraceStore(path).open()
        for target, kind in SCAN_INPUTS:
            run_gadget_scan(target, make_input(kind, 200, self.seed))
        capture_survey_traces(store, size=400, seed=self.seed)
        survey_from_store(store, 400, self.seed)
        capture_fingerprint_traces(
            store, "warmup", corpus=self.CORPUS, traces_per_file=2,
            seed=self.seed, max_file_bytes=1200,
        )
        fingerprint_experiment_from_store(store, "warmup", seed=self.seed)
        store.verify()
        shutil.rmtree(path, ignore_errors=True)

    def _store_path(self, index: int) -> Path:
        return self.work / f"store-{index}"

    def body(self, index: int, result: IterationResult) -> None:
        from repro.core import taintchannel
        from repro.traces import TraceStore, capture, replay

        events = gadgets = 0
        for target, data in self.scan_inputs:
            scan = self.stage("scan", taintchannel.run_gadget_scan, target, data)
            events += scan["n_events"]
            gadgets += scan["n_gadgets"]
            found = {g["site"] for g in scan["gadgets"]}
            required, optional = GADGET_SITES[target]
            result.check(
                required <= found <= required | optional,
                f"{target} scan found gadgets {sorted(found)}, expected "
                f"{sorted(required)} (and possibly {sorted(optional)})",
            )

        store = TraceStore(self._store_path(index)).open()
        entries = self.stage(
            "survey.capture", capture.capture_survey_traces, store,
            size=self.SURVEY_BYTES, seed=self.seed,
        )
        result.check(len(entries) == 3, "survey capture did not store 3 traces")

        for _ in range(self.REPLAYS):
            survey = self.stage(
                "survey.replay", replay.survey_from_store, store,
                self.SURVEY_BYTES, self.seed,
            )
            result.check(
                survey["zlib_accuracy"] >= 0.999,
                f"zlib accuracy {survey['zlib_accuracy']} < 0.999",
            )
            result.check(
                survey["lzw_exact_found"] and survey["lzw_candidates"] <= 8,
                f"lzw input not found exactly among <= 8 candidates "
                f"({survey['lzw_candidates']} candidates)",
            )
            result.check(
                survey["bzip2_bit_accuracy"] == 1.0,
                f"bzip2 bit accuracy {survey['bzip2_bit_accuracy']} != 1.0",
            )

        trace_id = f"fig7-{self.CORPUS}-s{self.seed}"
        fig7 = self.stage(
            "fig7.capture", capture.capture_fingerprint_traces, store,
            trace_id, corpus=self.CORPUS,
            traces_per_file=self.TRACES_PER_FILE, seed=self.seed,
        )
        classify = self.stage(
            "fig7.classify", replay.fingerprint_experiment_from_store, store,
            trace_id, seed=self.seed,
        )
        result.check(
            classify["test_accuracy"] > classify["chance"],
            f"Fig. 7 test accuracy {classify['test_accuracy']:.4f} is not "
            f"above chance {classify['chance']:.4f}",
        )
        reports = self.stage("verify", store.verify)
        bad = [r.trace_id for r in reports if not r.ok]
        result.check(len(reports) == 4 and not bad, f"store verify failed: {bad}")

        records = sum(e.n_records for e in entries)
        size = sum(e.size_bytes for e in entries)
        result.counts.update(
            {
                "taint.events": events,
                "taint.gadgets": gadgets,
                "traces.records": records,
                "traces.bytes": size,
                "recovery.lzw.candidates": survey["lzw_candidates"],
                "fig7.captures": fig7.n_records,
                "classify.test_accuracy": classify["test_accuracy"],
            }
        )
        result.values["traces.bytes_per_record"] = size / records

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self._store_path(index), ignore_errors=True)

    def instrument(self, recorder: SpanRecorder) -> None:
        from repro.classify import MLPClassifier
        from repro.core.taintchannel import run_gadget_scan
        from repro.core.zipchannel.fingerprint import (
            FingerprintChannel,
            victim_timeline,
        )
        from repro.recovery import (
            recover_bzip2_block,
            recover_known_high_bits,
            recover_lzw_input,
        )
        from repro.traces import TraceStore
        from repro.traces.capture import run_memory_target

        recorder.patch_function(run_gadget_scan, "taint.scan")
        recorder.patch_function(run_memory_target, "exec.capture")
        recorder.patch_function(recover_known_high_bits, "recovery.zlib")
        recorder.patch_function(recover_lzw_input, "recovery.lzw")
        recorder.patch_function(recover_bzip2_block, "recovery.bzip2")
        recorder.patch_function(victim_timeline, "compression.bzip2_native")
        recorder.patch_method(
            FingerprintChannel, "capture", "sidechannel.flush_reload"
        )
        recorder.patch_method(TraceStore, "read_columns", "traces.decode")
        recorder.patch_method(MLPClassifier, "fit", "classify.train")
        recorder.patch_method(MLPClassifier, "accuracy", "classify.accuracy")

        create = TraceStore.__dict__["create"]

        def create_traced(store, *args, **kwargs):
            writer = create(store, *args, **kwargs)
            for attr in ("append", "extend", "close"):
                setattr(
                    writer, attr, recorder.wrap("traces.encode", getattr(writer, attr))
                )
            return writer

        recorder.patch(TraceStore, "create", create_traced)

    def end_to_end(self, results):
        first = results[0].counts
        return {
            "scan.events_per_s": first["taint.events"] / stage_median(results, "scan"),
            "survey.capture_rec_per_s": first["traces.records"]
            / stage_median(results, "survey.capture"),
            "survey.replay_rec_per_s": first["traces.records"]
            / median_of(results, lambda r: statistics.median(r.stages["survey.replay"])),
            "fig7.capture_per_s": first["fig7.captures"]
            / stage_median(results, "fig7.capture"),
            "fig7.classify_s": stage_median(results, "fig7.classify"),
        }

    def layer_metrics(self, recorder, traced):
        med = median_self_seconds(recorder, traced)
        counts = traced[0][1].counts
        return {
            "taint.scan_s": med["taint.scan"],
            "taint.events": counts["taint.events"],
            "taint.gadgets": counts["taint.gadgets"],
            "exec.capture_s": med["exec.capture"],
            "traces.encode_s": med["traces.encode"],
            "traces.records": counts["traces.records"],
            "traces.bytes": counts["traces.bytes"],
            "traces.bytes_per_record": traced[0][1].values["traces.bytes_per_record"],
            "traces.decode_s": med["traces.decode"],
            "recovery.zlib.s": med["recovery.zlib"],
            "recovery.lzw.s": med["recovery.lzw"],
            "recovery.lzw.candidates": counts["recovery.lzw.candidates"],
            "recovery.bzip2.self_s": med["recovery.bzip2"],
            "compression.bzip2_native_s": med["compression.bzip2_native"],
            "sidechannel.flush_reload_s": med["sidechannel.flush_reload"],
            "classify.train_s": med["classify.train"],
            "classify.test_accuracy": counts["classify.test_accuracy"],
        }


# ---------------------------------------------------------------------
# campaign_local / campaign_cluster2
# ---------------------------------------------------------------------

WORKERS = 2


def campaign_spec(name: str, base_seed: int, trials: int, failures: int) -> dict:
    """The campaign both engines run: noisy LZW recovery over a 4x
    spread of input sizes, with injected failures that force retries."""
    return {
        "name": name,
        "experiment": "lzw_recovery",
        "grid": {"noise": [0.0, 0.01], "size": [150, 300, 600]},
        "fixed": {"input_kind": "random"},
        "trials": trials,
        "base_seed": base_seed,
        "timeout_seconds": 120,
        "max_retries": 2,
        "retry_backoff": 0.05,
        "inject_failures": {"count": failures, "attempts": 1, "mode": "exception"},
    }


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> tuple[int, str]:
    """Run one CLI child in its own process group; on timeout kill the
    group (the child's pool or cluster workers included) and wait for
    it.  Returns (exit code, captured stderr tail)."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -signal.SIGKILL, f"killed after {timeout:.0f}s"
    finally:
        # A child that exited may leave its workers behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, err.decode(errors="replace")[-400:]


class Campaign(Workload):
    """A 144-job campaign through one CLI engine with an obs sink, then
    the campaign dossier, each in a fresh process."""

    JOBS_TRIALS = 24  # x 6 grid cells = 144 jobs
    INJECTED = 4
    engine = ""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.digests: list[str] = []

    @property
    def n_jobs(self) -> int:
        return self.JOBS_TRIALS * 6

    def _write_spec(self, name: str, trials: int, failures: int) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(campaign_spec(name, self.seed, trials, failures)))
        return path.name

    def setup(self) -> None:
        import repro.campaign.store  # noqa: F401  (used to read results)
        import repro.obs.report  # noqa: F401  (used to read the sink)

        self.work.mkdir(parents=True, exist_ok=True)
        self.spec = self._write_spec("bench", self.JOBS_TRIALS, self.INJECTED)
        warm = self._write_spec("warmup", 1, 0)
        code, err = self._run_campaign(self.engine, warm, "warmup", "warmup.obs.jsonl")
        shutil.rmtree(self.work / "warmup", ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"warm-up campaign failed ({code}): {err}")

    def _run_campaign(self, engine: str, spec: str, out: str, sink: str):
        cli = [sys.executable, "-m", "repro"]
        if engine == "local":
            argv = cli + ["campaign", "run", spec]
        else:
            sock = self.work / f"{out}.sock"
            sock.unlink(missing_ok=True)
            argv = cli + [
                "cluster", "run", spec, "--listen", f"unix:{sock.name}",
                "--deadline", str(CLUSTER_DEADLINE_S),
            ]
        argv += ["--out", out, "--workers", str(WORKERS), "--quiet", "--obs", sink]
        return run_child(argv, self.work, self.env, CHILD_TIMEOUT_S)

    def _report(self, out: str):
        argv = [sys.executable, "-m", "repro", "report", out, "--out", f"{out}.md"]
        return run_child(argv, self.work, self.env, CHILD_TIMEOUT_S)

    def _records(self, out: str):
        from repro.campaign.store import ResultStore

        return ResultStore(self.work / out).load_records()

    def _check_records(self, result: IterationResult, out: str, code: int, err: str):
        from repro.campaign.store import metrics_digest

        records = self._records(out)
        ok = sum(1 for r in records.values() if r.ok)
        # Every job that did not end ok is a failed operation; a bad exit
        # with every job ok is one.
        result.attempted += self.n_jobs
        if ok != self.n_jobs or code != 0:
            result.failures.append(
                (max(self.n_jobs - ok, 1),
                 f"campaign: {ok}/{self.n_jobs} ok, exit {code}: {err}")
            )
        return records, metrics_digest(records)

    def body(self, index: int, result: IterationResult) -> None:
        out, sink = f"run-{index}", f"run-{index}.obs.jsonl"
        launched = time.time()
        code, err = self.stage(
            "campaign.cli", self._run_campaign, self.engine, self.spec, out, sink
        )
        records, digest = self._check_records(result, out, code, err)
        if self.digests:
            result.check(
                digest == self.digests[0],
                f"metrics_digest {digest[:12]} differs from the first "
                f"iteration's {self.digests[0][:12]}",
            )
        self.digests.append(digest)
        rcode, rerr = self.stage("campaign.report", self._report, out)
        dossier = self.work / f"{out}.md"
        result.check(
            rcode == 0 and dossier.exists() and dossier.stat().st_size > 0,
            f"repro report failed ({rcode}): {rerr}",
        )
        if self.recorder is not None:
            self.stage("artifacts", self._read_artifacts, result, out, sink,
                       records, launched)

    def _read_artifacts(self, result, out, sink, records, launched) -> None:
        """The campaign layer numbers, from the run's own artifacts."""
        from repro.obs.core import Histogram
        from repro.obs.report import load_events, merge_events, trace_summary

        jobs = len(records) or 1
        attempts = sum(r.attempts for r in records.values())
        compute = sum(r.duration_seconds for r in records.values() if r.ok)
        wall = result.stage_s("campaign.cli")
        events = load_events(str(self.work / sink))
        summary = trace_summary(events)
        merged = merge_events(events)
        store_bytes = sum(
            p.stat().st_size
            for p in (self.work / out).rglob("*")
            if p.is_file() and (p.name == "results.jsonl" or "shard-" in str(p))
        )
        finished = [r.finished_at for r in records.values() if r.finished_at]
        values = {
            "campaign.compute_s": compute,
            "campaign.overhead_ms_per_job": (wall * WORKERS - compute) / jobs * 1e3,
            "campaign.first_record_s": (min(finished) - launched) if finished else wall,
            "campaign.queue_wait_s": summary["queue_wait_seconds"],
            "campaign.backoff_s": summary["retry_backoff_seconds"],
            "campaign.merge_s": summary["merge_seconds"],
            "obs.sink_bytes_per_job": (self.work / sink).stat().st_size / jobs,
            "obs.events_per_job": len(events) / jobs,
            "campaign.store_bytes": store_bytes,
            "campaign.dossier_s": result.stage_s("campaign.report"),
        }
        hists = merged["histograms"]
        if "cluster.lease_wait_seconds" in hists:
            lease = Histogram()
            lease.merge_dict(hists["cluster.lease_wait_seconds"])
            values["cluster.lease_wait_p50_s"] = lease.quantile(0.5)
            values["cluster.lease_wait_p90_s"] = lease.quantile(0.9)
        if "cluster.queue_depth" in hists:
            values["cluster.queue_depth_max"] = hists["cluster.queue_depth"]["max"]
        result.values.update(values)
        result.counts.update(
            {"campaign.attempts": attempts, "campaign.retries": attempts - len(records)}
        )

    def cleanup(self, index: int) -> None:
        out = self.work / f"run-{index}"
        shutil.rmtree(out, ignore_errors=True)
        for suffix in (".obs.jsonl", ".md", ".sock"):
            (self.work / f"run-{index}{suffix}").unlink(missing_ok=True)

    def finish(self, result: IterationResult) -> None:
        """The other engine must produce the same metrics digest."""
        other = "cluster" if self.engine == "local" else "local"
        out = f"crosscheck-{other}"
        code, err = self._run_campaign(other, self.spec, out, f"{out}.obs.jsonl")
        _, digest = self._check_records(result, out, code, err)
        result.check(
            bool(self.digests) and digest == self.digests[0],
            f"{other} metrics_digest {digest[:12]} != {self.engine} "
            f"{(self.digests or ['-'])[0][:12]}",
        )
        shutil.rmtree(self.work / out, ignore_errors=True)
        (self.work / f"{out}.obs.jsonl").unlink(missing_ok=True)

    def end_to_end(self, results):
        return {
            "campaign.jobs_per_s": self.n_jobs / stage_median(results, "campaign.cli"),
        }

    def layer_metrics(self, recorder, traced):
        out = dict(traced[0][1].counts)
        for key in traced[0][1].values:
            out[key] = statistics.median(r.values[key] for _, r in traced)
        return out


class CampaignLocal(Campaign):
    name = "campaign_local"
    engine = "local"


class CampaignCluster2(Campaign):
    name = "campaign_cluster2"
    engine = "cluster"


WORKLOADS = {
    w.name: w for w in (SgxExtract, TracePipeline, CampaignLocal, CampaignCluster2)
}

# Per-layer metrics that are simulated or work counts: for one seed they
# repeat bit-for-bit, run after run.
_CAMPAIGN_EXACT = ("campaign.attempts", "campaign.retries")
EXACT_COUNTS = {
    "sgx_extract": (
        "cache.accesses", "cache.hits", "cache.misses", "cache.evictions",
        "memsys.faults", "sgx.enclave.touches", "sidechannel.prime_probe.calls",
        "sidechannel.frame_remaps", "sgx.useful_ratio",
    ),
    "trace_pipeline": (
        "taint.events", "taint.gadgets", "traces.records", "traces.bytes",
        "traces.bytes_per_record", "recovery.lzw.candidates",
        "classify.test_accuracy",
    ),
    "campaign_local": _CAMPAIGN_EXACT,
    "campaign_cluster2": _CAMPAIGN_EXACT,
}
