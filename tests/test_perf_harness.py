"""Unit tests for the repro.perf harness: digests, the gate payload
``perf run`` writes, the perf regression gate and its CLI."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro import cli, gate
from repro.perf.harness import compare_benches, metrics_digest, run_benches


REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "perf_baseline.json"


def _bench(name, params=None, seed=1, metrics=None):
    """One bench's (pin, rows) as ``run_benches`` records them."""
    metrics = metrics if metrics is not None else {"answer": 42}
    pin = {"params": params or {"size": 100}, "seed": seed}
    return pin, {f"{name}.metrics_digest": metrics_digest(metrics)}


def _report(**benches):
    pins, metrics = {}, {}
    for name, (pin, rows) in benches.items():
        pins[name] = pin
        metrics.update(rows)
    return gate.payload({"benches": pins}, metrics, lambda name: "equal")


class TestMetricsDigest:
    def test_volatile_keys_do_not_poison_digest(self):
        a = {"accuracy": 0.9, "duration_seconds": 1.23}
        b = {"accuracy": 0.9, "duration_seconds": 9.87}
        assert metrics_digest(a) == metrics_digest(b)

    def test_substantive_change_changes_digest(self):
        assert metrics_digest({"accuracy": 0.9}) != metrics_digest(
            {"accuracy": 0.91}
        )

    def test_key_order_is_canonical(self):
        assert metrics_digest({"a": 1, "b": 2}) == metrics_digest(
            {"b": 2, "a": 1}
        )


class TestReportRoundTrip:
    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            gate.validate({"schema": "other/9"})

    def test_run_payload_round_trips_pins_and_digests(self, tmp_path):
        payload = run_benches(["lzw_recovery"])
        path = tmp_path / "r.json"
        gate.save(str(path), payload)
        back = gate.load(str(path))
        assert back == json.loads(json.dumps(payload))
        assert back["params"]["benches"]["lzw_recovery"] == {
            "params": {"size": 150, "noise": 0.02},
            "seed": 9,
        }
        assert back["directions"] == {"lzw_recovery.metrics_digest": "equal"}
        assert compare_benches(back, payload).ok


class TestCompareGate:
    def test_clean_comparison_passes(self):
        current = _report(a=_bench("a"), b=_bench("b"))
        baseline = _report(a=_bench("a"), b=_bench("b"))
        outcome = compare_benches(current, baseline)
        assert outcome.ok
        assert "PASS" in outcome.summary()

    def test_digest_mismatch_fails_before_timing(self):
        current = _report(a=_bench("a", metrics={"bits": 1}))
        baseline = _report(a=_bench("a", metrics={"bits": 2}))
        outcome = compare_benches(current, baseline)
        assert not outcome.ok
        assert [r.name for r in outcome.regressions] == ["a.metrics_digest"]
        assert "CHANGED" in outcome.summary()

    def test_pin_change_skips_timing_comparison(self):
        current = _report(a=_bench("a", params={"size": 999}))
        baseline = _report(a=_bench("a", params={"size": 100}))
        outcome = compare_benches(current, baseline)
        assert outcome.ok  # incomparable, not a regression
        assert any("pin changed" in r.note for r in outcome.rows)

    def test_pin_change_suppresses_metrics_verdict(self):
        current = _report(
            a=_bench("a", params={"size": 500}, metrics={"bits": 1})
        )
        baseline = _report(
            a=_bench("a", params={"size": 100}, metrics={"bits": 2})
        )
        outcome = compare_benches(current, baseline)
        assert outcome.ok
        rows = {r.name: r for r in outcome.rows}
        assert rows["a.metrics_digest"].direction == "info"
        assert rows["a.metrics_digest"].note == "pin changed"

    def test_missing_bench_in_current_fails(self):
        current = _report(a=_bench("a"))
        baseline = _report(a=_bench("a"), b=_bench("b"))
        outcome = compare_benches(current, baseline)
        assert {r.name for r in outcome.regressions} == {"b.metrics_digest"}


class TestBenchCatalogue:
    def test_catalogue_names_resolve(self):
        from repro.perf import available_benches, get_bench

        names = available_benches()
        assert "sec5e_attack" in names and "fig7_dataset" in names
        for name in names:
            assert get_bench(name).params

    def test_unknown_bench_rejected(self):
        from repro.perf import get_bench

        with pytest.raises(KeyError, match="unknown bench"):
            get_bench("nope")


class TestReplayScratchStores:
    @pytest.mark.parametrize("name", ["survey_replay", "fig7_replay"])
    def test_scratch_store_leaves_on_return(self, name, tmp_path, monkeypatch):
        """A replay bench captures into its own scratch store and
        removes it before returning, in every process."""
        from repro.perf import get_bench
        from repro.traces import TraceStore

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        opened = []
        real_open = TraceStore.open

        def spy(store, *args, **kwargs):
            opened.append(store.root)
            return real_open(store, *args, **kwargs)

        monkeypatch.setattr(TraceStore, "open", spy)
        result = get_bench(name).run()
        assert any(tmp_path in root.parents for root in opened)
        assert list(tmp_path.iterdir()) == []
        baseline = gate.load(str(BASELINE))["metrics"]
        assert metrics_digest(result) == baseline[f"{name}.metrics_digest"]


class TestCommittedBaseline:
    def test_gates_every_bench_at_its_quick_pin(self):
        from repro.perf import available_benches, get_bench

        baseline = gate.load(str(BASELINE))
        pins = baseline["params"]["benches"]
        assert sorted(pins) == sorted(available_benches())
        for name, pin in pins.items():
            bench = get_bench(name)
            assert pin == {"params": bench.params, "seed": bench.seed}, name
        assert baseline["directions"] == {
            f"{name}.metrics_digest": "equal" for name in available_benches()
        }

    def test_quick_run_reproduces_every_committed_digest(self):
        """What CI's perf smoke gates, in tier-1: every bench at its
        pin reproduces its committed digest."""
        baseline = gate.load(str(BASELINE))
        assert run_benches()["metrics"] == baseline["metrics"]


class TestCLI:
    def test_run_then_compare_against_itself_passes(self, tmp_path, capsys):
        out = tmp_path / "quick.json"
        assert cli.main(
            ["perf", "run", "--bench", "lzw_recovery",
             "--out", str(out), "--quiet"]
        ) == 0
        assert cli.main(["perf", "compare", str(out), "--baseline", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "compare", "--baseline",
             str(REPO / "benchmarks" / "claims_baseline.json")],
            ["perf", "run", "--bench", "nope"],
            ["perf", "profile", "--experiment", "lzw_recovery",
             "--params", "{bad"],
            ["perf", "profile", "--experiment", "lzw_recovery",
             "--params", "[1]"],
        ],
        ids=["claims-baseline", "unknown-bench", "params-not-json",
             "params-not-object"],
    )
    def test_bad_input_exits_two_before_running(self, argv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran a bench on unusable input")

        monkeypatch.setattr("repro.perf.run_benches", refuse)
        monkeypatch.setattr("repro.perf.profile_bench", refuse)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
