"""The pinned benches and the profiler CLI: metrics digests, the
``claim.DIGEST.*`` rows the claims baseline commits for each
``DIGEST_PINS`` bench, and ``perf profile``'s input checks."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro import cli, gate
from repro.campaign.experiments import available_experiments, get_experiment
from repro.diag.claims import DIGEST_PINS, metrics_digest


REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "claims_baseline.json"


def _digest_rows(metrics):
    return {k: v for k, v in metrics.items() if k.startswith("claim.DIGEST.")}


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


class TestBenchCatalogue:
    def test_catalogue_names_resolve(self):
        assert "sec5e_attack" in DIGEST_PINS and "fig7_dataset" in DIGEST_PINS
        for experiment, params, seed in DIGEST_PINS.values():
            assert experiment in available_experiments()
            assert params and isinstance(seed, int)

    def test_unknown_bench_rejected(self, capsys):
        """``perf profile nope`` exits 2 and names every bench."""
        assert cli.main(["perf", "profile", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown bench 'nope'")
        assert err.count("\n") == 1, err
        assert all(name in err for name in DIGEST_PINS)


class TestReplayScratchStores:
    @pytest.mark.parametrize("name", ["survey_replay", "fig7_replay"])
    def test_scratch_store_leaves_on_return(self, name, tmp_path, monkeypatch):
        """A replay bench captures into its own scratch store and
        removes it before returning, in every process."""
        from repro.traces import TraceStore

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        opened = []
        real_open = TraceStore.open

        def spy(store, *args, **kwargs):
            opened.append(store.root)
            return real_open(store, *args, **kwargs)

        monkeypatch.setattr(TraceStore, "open", spy)
        experiment, params, seed = DIGEST_PINS[name]
        result = get_experiment(experiment)(dict(params), seed)
        assert any(tmp_path in root.parents for root in opened)
        assert list(tmp_path.iterdir()) == []
        baseline = gate.load(str(BASELINE))["metrics"]
        assert metrics_digest(result) == baseline[f"claim.DIGEST.{name}.metrics_digest"]


class TestCommittedBaseline:
    def test_gates_every_bench_at_its_quick_pin(self):
        """One ``equal`` row per pinned bench, and no other DIGEST row."""
        baseline = gate.load(str(BASELINE))
        assert _digest_rows(baseline["directions"]) == {
            f"claim.DIGEST.{name}.metrics_digest": "equal" for name in DIGEST_PINS
        }

    def test_quick_run_reproduces_every_committed_digest(self, claims):
        """Every bench at its pin reproduces its committed digest (the
        session's one claims collection)."""
        baseline = gate.load(str(BASELINE))
        assert _digest_rows(claims) == _digest_rows(baseline["metrics"])


class TestCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "profile", "nope"],
            ["perf", "profile", "--experiment", "lzw_recovery",
             "--params", "{bad"],
            ["perf", "profile", "--experiment", "lzw_recovery",
             "--params", "[1]"],
        ],
        ids=["unknown-bench", "params-not-json", "params-not-object"],
    )
    def test_bad_input_exits_two_before_running(self, argv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran a bench on unusable input")

        monkeypatch.setattr("repro.campaign.experiments.get_experiment", refuse)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
