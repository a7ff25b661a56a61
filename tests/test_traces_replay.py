"""Replay fidelity: stored traces are interchangeable with live captures.

The acceptance contract of the trace layer is *exact* equality — the
Section IV recovery metrics and the Section VI classifier metrics
computed from stored traces match the live pipeline bit for bit under
the same seeds.
"""

import numpy as np
import pytest

from repro.campaign.experiments import get_experiment
from repro.core.zipchannel.fingerprint import (
    build_dataset,
    derive_capture_seed,
    pool_trace,
    run_fingerprint_experiment,
)
from repro.exec import TracingContext, TraceLimitExceeded
from repro.traces import (
    SPECIES_MEMORY,
    TraceStore,
    capture_fingerprint_traces,
    capture_memory_trace,
    capture_survey_traces,
    dataset_from_store,
    deserialize_records,
    fingerprint_experiment_from_store,
    recover_from_trace,
    replay_lines,
    serialize_records,
    survey_from_store,
    target_lines,
)
from repro.recovery.survey import observation_filter as _target_filter
from repro.workloads import repetitiveness_series

SIZE = 150
SEED = 5


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "replay.trstore")


class TestSurveyReplayFidelity:
    def test_stored_survey_matches_live_exactly(self, store):
        """SURVEY from the store == SURVEY re-simulated, same seeds."""
        capture_survey_traces(store, size=SIZE, seed=SEED)
        live = get_experiment("survey_recovery")({"size": SIZE}, SEED)
        replayed = survey_from_store(store, size=SIZE, sweep_seed=SEED)
        assert replayed == live

    def test_replay_lines_matches_observed_lines(self, store):
        from repro.compression import deflate_compress
        from repro.compression.lz77 import SITE_HEAD
        from repro.recovery import observed_lines
        from repro.workloads import lowercase_ascii

        data = lowercase_ascii(SIZE, seed=SEED)
        ctx = TracingContext()
        deflate_compress(data, ctx=ctx)
        live_lines = observed_lines(ctx, SITE_HEAD, kind="write")

        capture_memory_trace(store, "z", "zlib", SIZE, SEED)
        stored_lines = replay_lines(
            store.iter_records("z"), sites=(SITE_HEAD,), kind="write"
        )
        assert stored_lines == live_lines

    def test_recovery_metadata_is_self_contained(self, store):
        """A single stored trace carries everything its decoder needs."""
        capture_memory_trace(store, "b", "bzip2", SIZE, SEED)
        metrics = recover_from_trace(store, "b")
        assert metrics["target"] == "bzip2"
        assert metrics["bzip2_bit_accuracy"] == 1.0

    def test_recover_rejects_wrong_species(self, store):
        capture_fingerprint_traces(
            store, "fp", corpus="lipsum", traces_per_file=1, seed=0
        )
        with pytest.raises(ValueError, match="'memory'"):
            recover_from_trace(store, "fp")


class TestColumnarReplayMatchesObjectReader:
    """The columnar decode is the only production path; the object
    reader is its reference on a real captured store."""

    def test_target_lines_match_replay_lines(self, store):
        capture_survey_traces(store, size=SIZE, seed=SEED)
        for target in ("zlib", "lzw", "bzip2"):
            trace_id = f"survey-{target}-n{SIZE}-s{SEED}"
            sites, kind = _target_filter(target)
            expected = replay_lines(
                store.iter_records(trace_id), sites=sites, kind=kind
            )
            assert target_lines(store, trace_id).tolist() == expected, target

    def test_dataset_matches_pool_trace_per_capture(self, store):
        capture_fingerprint_traces(
            store, "fp", corpus="brotli", traces_per_file=2, seed=SEED,
            max_file_bytes=1200,
        )
        captures = list(store.iter_records("fp"))
        x, y = dataset_from_store(store, "fp")
        expected = np.array(
            [pool_trace(c.trace).reshape(-1) for c in captures],
            dtype=np.float32,
        )
        assert x.dtype == np.float32
        assert np.array_equal(x, expected)
        assert y.tolist() == [c.label for c in captures]


class TestFingerprintReplayFidelity:
    TRACES = 3

    def test_stored_dataset_matches_live_exactly(self, store):
        capture_fingerprint_traces(
            store, "fp", corpus="lipsum", traces_per_file=self.TRACES, seed=SEED
        )
        x_live, y_live, _ = build_dataset(
            repetitiveness_series(), traces_per_file=self.TRACES, seed=SEED
        )
        x_rep, y_rep = dataset_from_store(store, "fp")
        assert np.array_equal(x_rep, x_live)
        assert np.array_equal(y_rep, y_live)

    def test_classifier_metrics_match_live_exactly(self, store):
        """FIG7-style metrics from the store == live run, same seeds."""
        capture_fingerprint_traces(
            store, "fp", corpus="lipsum", traces_per_file=self.TRACES, seed=SEED
        )
        live = run_fingerprint_experiment(
            corpus="lipsum", traces=self.TRACES, epochs=4, seed=SEED
        )
        replayed = fingerprint_experiment_from_store(
            store, "fp", epochs=4, seed=SEED
        )
        assert replayed == live

    def test_capture_seeds_recorded_per_record(self, store):
        capture_fingerprint_traces(
            store, "fp", corpus="lipsum", traces_per_file=2, seed=SEED
        )
        records = store.read("fp")
        expected = [
            derive_capture_seed(SEED, label, i)
            for label in range(5)
            for i in range(2)
        ]
        assert [r.capture_seed for r in records] == expected
        assert [r.label for r in records] == [l for l in range(5) for _ in range(2)]

    def test_capture_seed_derivation_is_order_free(self):
        """Each capture's seed depends only on its own coordinates."""
        assert derive_capture_seed(1, 3, 7) == derive_capture_seed(1, 3, 7)
        seeds = {
            derive_capture_seed(s, label, i)
            for s in (0, 1)
            for label in (0, 1, 2)
            for i in (0, 1)
        }
        assert len(seeds) == 12  # no collisions across coordinates


class TestTraceLimitBudget:
    def test_partial_trace_is_still_serializable(self):
        """Regression for the TraceLimitExceeded path: when a traced run
        blows its event budget, everything recorded up to the limit must
        still round-trip through the trace format (a crashed campaign
        job's partial capture is evidence, not garbage)."""
        from repro.compression import lzw_compress
        from repro.workloads import random_bytes

        ctx = TracingContext(max_events=500)
        with pytest.raises(TraceLimitExceeded, match="500"):
            lzw_compress(random_bytes(400, seed=3), ctx=ctx)

        partial = ctx.tainted_accesses()
        assert 0 < len(partial) <= 500
        assert len(ctx.events) == 500  # budget honoured exactly
        blob = serialize_records(SPECIES_MEMORY, partial)
        back = deserialize_records(blob)
        assert len(back) == len(partial)
        assert [r.address for r in back] == [r.address for r in partial]
        assert [bool(r.addr_taint) for r in back] == [True] * len(partial)

    def test_partial_trace_storable_and_verifiable(self, store, tmp_path):
        from repro.compression import lzw_compress
        from repro.workloads import random_bytes

        ctx = TracingContext(max_events=300)
        with pytest.raises(TraceLimitExceeded):
            lzw_compress(random_bytes(400, seed=3), ctx=ctx)
        entry = store.put(
            "partial", SPECIES_MEMORY, ctx.tainted_accesses(),
            meta={"truncated": True},
        )
        assert entry.n_records == len(ctx.tainted_accesses())
        (report,) = store.verify("partial")
        assert report.ok


class TestCampaignAdapters:
    def test_capture_then_analyze_sweeps(self, tmp_path):
        """The capture-once/analyze-many campaign flow: one experiment
        captures into a shared store, the analysis experiments consume
        it and reproduce the live metrics exactly."""
        store_dir = str(tmp_path / "campaign.trstore")
        capture = get_experiment("trace_capture")
        out = capture(
            {"store": store_dir, "kind": "survey", "size": SIZE,
             "sweep_seed": SEED},
            seed=12345,  # job seed differs; sweep_seed pins the ids
        )
        assert len(out["trace_ids"]) == 3 and out["n_records"] > 0

        analyze = get_experiment("survey_from_store")
        replayed = analyze(
            {"store": store_dir, "size": SIZE, "sweep_seed": SEED}, seed=999
        )
        live = get_experiment("survey_recovery")({"size": SIZE}, SEED)
        assert replayed == live

    def test_fingerprint_capture_then_analyze(self, tmp_path):
        store_dir = str(tmp_path / "fp.trstore")
        capture = get_experiment("trace_capture")
        capture(
            {"store": store_dir, "kind": "fingerprint", "corpus": "lipsum",
             "traces": 2, "sweep_seed": SEED},
            seed=1,
        )
        analyze = get_experiment("fingerprint_from_store")
        metrics = analyze(
            {"store": store_dir, "corpus": "lipsum", "traces": 2,
             "sweep_seed": SEED, "epochs": 2},
            seed=SEED,
        )
        live = run_fingerprint_experiment(
            corpus="lipsum", traces=2, epochs=2, seed=SEED
        )
        assert metrics == live


class TestTraceCli:
    def test_capture_list_verify_export(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "cli.trstore")
        assert main([
            "trace", "capture", "--store", store_dir,
            "--size", "80", "--seed", "3", "--targets", "zlib", "lzw",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("captured ") == 2

        assert main(["trace", "list", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "survey-zlib-n80-s3" in out and "memory" in out

        assert main(["trace", "verify", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 2

        export_path = tmp_path / "dump.json"
        assert main([
            "trace", "export", "--store", store_dir,
            "--id", "survey-zlib-n80-s3", "--out", str(export_path),
        ]) == 0
        import json

        payload = json.loads(export_path.read_text())
        assert payload["entry"]["species"] == "memory"
        assert payload["records"][0]["tainted"] is True

    def test_verify_reports_corruption_with_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "cli.trstore"
        store = TraceStore(store_dir)
        store.put(
            "t1", SPECIES_MEMORY,
            [r for r in _tiny_records()],
        )
        path = store.trace_path("t1")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 1
        path.write_bytes(bytes(blob))
        assert main(["trace", "verify", "--store", str(store_dir)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_missing_store_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "list", "--store", str(tmp_path / "no")]) == 2
        capsys.readouterr()

    def test_cli_captured_store_replays_to_the_live_survey(
        self, tmp_path, capsys
    ):
        """A store captured by ``repro trace capture`` replays to the
        live ``survey_recovery`` metrics, same size and seed."""
        from repro.cli import main

        store_dir = str(tmp_path / "smoke.trstore")
        assert main([
            "trace", "capture", "--store", store_dir,
            "--size", str(SIZE), "--seed", str(SEED),
        ]) == 0
        capsys.readouterr()
        live = get_experiment("survey_recovery")({"size": SIZE}, SEED)
        replayed = survey_from_store(
            TraceStore(store_dir), size=SIZE, sweep_seed=SEED
        )
        assert replayed == live

    def test_fingerprint_capture_cli(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "fp.trstore")
        assert main([
            "trace", "capture", "--store", store_dir,
            "--species", "fingerprint", "--corpus", "lipsum",
            "--traces", "1", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fingerprint-lipsum-t1-s2" in out


def _tiny_records():
    from repro.exec.events import MemoryAccess

    return [
        MemoryAccess(seq=i + 1, kind="read", array="a", index=i,
                     elem_size=1, address=(1 << 40) + i, site="s")
        for i in range(10)
    ]
