"""Unit tests for the repro.perf harness: digests, the gate payload
``perf run`` writes, and the perf regression gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli, gate
from repro.perf.harness import (
    bench_direction,
    compare_benches,
    metrics_digest,
    run_benches,
)


REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "perf_baseline.json"


def _bench(name, seconds, params=None, seed=1, metrics=None):
    """One bench's (pin, rows) as ``run_benches`` records them."""
    metrics = metrics if metrics is not None else {"answer": 42}
    pin = {"params": params or {"size": 100}, "seed": seed}
    rows = {
        f"{name}.seconds": seconds,
        f"{name}.metrics_digest": metrics_digest(metrics),
    }
    return pin, rows


def _report(**benches):
    pins, metrics = {}, {}
    for name, (pin, rows) in benches.items():
        pins[name] = pin
        metrics.update(rows)
    return gate.payload(
        {"quick": True, "benches": pins}, metrics, bench_direction
    )


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
        payload = run_benches(["lzw_recovery"], quick=True)
        path = tmp_path / "r.json"
        gate.save(str(path), payload)
        back = gate.load(str(path))
        assert back == json.loads(json.dumps(payload))
        assert back["params"]["benches"]["lzw_recovery"] == {
            "params": {"size": 150, "noise": 0.02},
            "seed": 9,
        }
        assert back["directions"] == {
            "lzw_recovery.metrics_digest": "equal",
            "lzw_recovery.seconds": "lower",
        }
        assert compare_benches(back, payload).ok


class TestCompareGate:
    def test_clean_comparison_passes(self):
        current = _report(a=_bench("a", 1.0), b=_bench("b", 2.0))
        baseline = _report(a=_bench("a", 1.05), b=_bench("b", 2.1))
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert outcome.ok
        assert "PASS" in outcome.summary()

    def test_digest_mismatch_fails_before_timing(self):
        current = _report(a=_bench("a", 0.5, metrics={"bits": 1}))
        baseline = _report(a=_bench("a", 1.0, metrics={"bits": 2}))
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert not outcome.ok
        assert [r.name for r in outcome.regressions] == ["a.metrics_digest"]
        assert "CHANGED" in outcome.summary()

    def test_absolute_regression_detected(self):
        current = _report(a=_bench("a", 2.0))
        baseline = _report(a=_bench("a", 1.0))
        outcome = compare_benches(
            current, baseline, tolerance=0.2, normalize=False
        )
        assert [r.name for r in outcome.regressions] == ["a.seconds"]
        assert "REGRESSED" in outcome.summary()

    def test_uniform_machine_slowdown_cancels_when_normalized(self):
        # Everything 2x slower: a slower machine, not a regression.
        current = _report(
            a=_bench("a", 2.0), b=_bench("b", 4.0), c=_bench("c", 6.0)
        )
        baseline = _report(
            a=_bench("a", 1.0), b=_bench("b", 2.0), c=_bench("c", 3.0)
        )
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert "machine scale 2.000" in outcome.summary()
        assert outcome.ok

    def test_relative_regression_survives_normalization(self):
        # b regresses 3x while a and c are flat.
        current = _report(
            a=_bench("a", 1.0), b=_bench("b", 3.0), c=_bench("c", 1.0)
        )
        baseline = _report(
            a=_bench("a", 1.0), b=_bench("b", 1.0), c=_bench("c", 1.0)
        )
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert [r.name for r in outcome.regressions] == ["b.seconds"]

    def test_pin_change_skips_timing_comparison(self):
        current = _report(a=_bench("a", 9.0, params={"size": 999}))
        baseline = _report(a=_bench("a", 1.0, params={"size": 100}))
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert outcome.ok  # incomparable, not a regression
        assert any("pin changed" in r.note for r in outcome.rows)

    def test_pin_change_suppresses_metrics_verdict(self):
        current = _report(
            a=_bench("a", 1.0, params={"size": 500}, metrics={"bits": 1})
        )
        baseline = _report(
            a=_bench("a", 3.0, params={"size": 100}, metrics={"bits": 2})
        )
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert outcome.ok
        rows = {r.name: r for r in outcome.rows}
        assert rows["a.metrics_digest"].direction == "info"
        assert rows["a.metrics_digest"].note == "pin changed"

    def test_perf_rows_get_no_absolute_slack(self):
        current = _report(a=_bench("a", 0.0013))
        baseline = _report(a=_bench("a", 0.001))
        outcome = compare_benches(
            current, baseline, tolerance=0.2, normalize=False
        )
        assert not outcome.ok

    def test_missing_bench_in_current_fails(self):
        current = _report(a=_bench("a", 1.0))
        baseline = _report(a=_bench("a", 1.0), b=_bench("b", 1.0))
        outcome = compare_benches(current, baseline, tolerance=0.2)
        assert {r.name for r in outcome.regressions} == {
            "b.seconds", "b.metrics_digest"
        }


class TestBenchCatalogue:
    def test_catalogue_names_resolve(self):
        from repro.perf import available_benches, get_bench

        names = available_benches()
        assert "sec5e_attack" in names and "fig7_dataset" in names
        for name in names:
            bench = get_bench(name)
            assert bench.resolved_params(quick=True) != {} or bench.params == {}

    def test_unknown_bench_rejected(self):
        from repro.perf import get_bench

        with pytest.raises(KeyError, match="unknown bench"):
            get_bench("nope")


class TestCommittedBaseline:
    def test_gates_every_bench_at_its_quick_pin(self):
        from repro.perf import available_benches, get_bench

        baseline = gate.load(str(BASELINE))
        assert baseline["params"]["quick"] is True
        pins = baseline["params"]["benches"]
        assert sorted(pins) == sorted(available_benches())
        for name, pin in pins.items():
            bench = get_bench(name)
            assert pin == {
                "params": bench.resolved_params(quick=True),
                "seed": bench.seed,
            }, name
            assert baseline["directions"][f"{name}.seconds"] == "lower"
            assert baseline["directions"][f"{name}.metrics_digest"] == "equal"


    def test_quick_run_reproduces_every_committed_digest(self):
        """The digests gate ``equal`` in CI's timing-noisy perf smoke;
        here they are checked on their own, every bench at its pin."""
        baseline = gate.load(str(BASELINE))["metrics"]
        current = run_benches(quick=True)["metrics"]
        digests = sorted(name for name in baseline if name.endswith(".metrics_digest"))
        assert digests
        assert {name: current.get(name) for name in digests} == {
            name: baseline[name] for name in digests
        }


class TestCLI:
    def test_run_then_compare_against_itself_passes(self, tmp_path, capsys):
        out = tmp_path / "quick.json"
        assert cli.main(
            ["perf", "run", "--quick", "--bench", "lzw_recovery",
             "--out", str(out), "--quiet"]
        ) == 0
        assert cli.main(["perf", "compare", str(out), "--baseline", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
