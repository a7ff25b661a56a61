"""The leakage drift gate: directions, tolerances, and the committed
baseline.

Two acceptance criteria live here: ``repro diag compare`` passes
against the committed ``benchmarks/diag_baseline.json`` as-is, and
fails (exit 1) when a regression is injected by bumping the cache
noise σ.
"""

import json
from pathlib import Path

import pytest

from repro import gate
from repro.diag.drift import (
    ABS_EPSILON,
    DEFAULT_PARAMS,
    DEFAULT_TOLERANCE,
    collect_diag_metrics,
    metric_direction,
)

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "diag_baseline.json"

SMALL = dict(size=40, samples=200, n_targets=2, step_n=16)


def diag_payload(metrics, params=None):
    """What ``repro diag collect`` writes."""
    return gate.payload(params or DEFAULT_PARAMS, metrics, metric_direction)


def diag_gate(current, baseline):
    """What ``repro diag compare`` checks."""
    return gate.compare(
        current, baseline, DEFAULT_TOLERANCE, abs_epsilon=ABS_EPSILON
    )


class TestDirections:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("zlib.bit_accuracy", "higher"),
            ("lzw.mi_bits_per_byte", "higher"),
            ("bzip2.recovered_fraction", "higher"),
            ("timing.margin_sigma", "higher"),
            ("timing.misclassified_rate", "lower"),
            ("eviction.congruent_fraction", "higher"),
            ("single_step.page_accuracy", "higher"),
            ("timing.hit_mean", "info"),
            ("lzw.n_candidates", "info"),
        ],
    )
    def test_suffix_mapping(self, name, expected):
        assert metric_direction(name) == expected


class TestCompareLogic:
    def _baseline(self, metrics):
        return diag_payload(metrics, params={})

    def test_identical_metrics_pass(self):
        base = self._baseline({"a.bit_accuracy": 0.9, "t.hit_mean": 40.0})
        cmp = diag_gate({"a.bit_accuracy": 0.9, "t.hit_mean": 40.0}, base)
        assert cmp.ok
        assert cmp.regressions == []
        assert "PASS: 0 regressions" in cmp.summary()

    def test_higher_metric_drop_beyond_tolerance_fails(self):
        base = self._baseline({"a.bit_accuracy": 0.9})
        assert diag_gate({"a.bit_accuracy": 0.86}, base).ok  # within 5%
        cmp = diag_gate({"a.bit_accuracy": 0.80}, base)
        assert not cmp.ok
        assert cmp.regressions[0].name == "a.bit_accuracy"
        assert "FAIL: 1 regression " in cmp.summary()

    def test_lower_metric_rise_beyond_tolerance_fails(self):
        base = self._baseline({"timing.misclassified_rate": 0.10})
        assert diag_gate({"timing.misclassified_rate": 0.104}, base).ok
        assert not diag_gate(
            {"timing.misclassified_rate": 0.20}, base
        ).ok

    def test_zero_baseline_gets_absolute_slack(self):
        # a 0.0 lower-is-better baseline must not fail on any epsilon
        base = self._baseline({"timing.misclassified_rate": 0.0})
        ok_rate = ABS_EPSILON * 0.9
        assert diag_gate({"timing.misclassified_rate": ok_rate}, base).ok
        assert not diag_gate(
            {"timing.misclassified_rate": ABS_EPSILON * 3}, base
        ).ok

    def test_info_metrics_never_gate(self):
        base = self._baseline({"timing.hit_mean": 40.0})
        assert diag_gate({"timing.hit_mean": 400.0}, base).ok

    def test_missing_metric_fails_and_new_metric_informs(self):
        base = self._baseline({"a.bit_accuracy": 0.9})
        cmp = diag_gate({"b.bit_accuracy": 0.9}, base)
        assert not cmp.ok
        rows = {row.name: row for row in cmp.rows}
        assert rows["a.bit_accuracy"].note == "missing"
        assert rows["b.bit_accuracy"].note == "new"
        assert rows["b.bit_accuracy"].ok

    def test_accepts_payload_or_flat_dict_as_current(self):
        metrics = {"a.bit_accuracy": 0.9}
        base = self._baseline(metrics)
        assert diag_gate(diag_payload(metrics)["metrics"], base).ok
        assert diag_gate(metrics, base).ok


class TestBaselineIO:
    def test_roundtrip(self, tmp_path):
        payload = diag_payload({"a.bit_accuracy": 0.5}, params=SMALL)
        path = tmp_path / "base.json"
        gate.save(str(path), payload)
        loaded = gate.load(str(path))
        assert loaded == payload
        assert loaded["schema"] == gate.SCHEMA
        assert loaded["directions"]["a.bit_accuracy"] == "higher"

    def test_wrong_schema_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "repro-perf/1"}))
        with pytest.raises(ValueError, match=gate.SCHEMA):
            gate.load(str(path))


class TestCollectAndGate:
    def test_collection_is_deterministic(self):
        assert collect_diag_metrics(**SMALL) == collect_diag_metrics(**SMALL)

    def test_collection_covers_gadgets_and_probes(self):
        metrics = collect_diag_metrics(**SMALL)
        for prefix in ("zlib.", "lzw.", "bzip2.", "timing.", "eviction.",
                       "single_step."):
            assert any(k.startswith(prefix) for k in metrics), prefix

    def test_gate_passes_on_self(self):
        metrics = collect_diag_metrics(**SMALL)
        assert diag_gate(metrics, diag_payload(metrics)).ok

    def test_noise_injection_regresses_the_gate(self):
        base = diag_payload(collect_diag_metrics(**SMALL))
        injected = collect_diag_metrics(noise_sigma=30.0, **SMALL)
        cmp = diag_gate(injected, base)
        assert not cmp.ok
        assert any(
            row.name == "timing.margin_sigma" for row in cmp.regressions
        )

    def test_committed_baseline_compares_clean(self):
        """The repo's own baseline must pass with the recorded params."""
        baseline = gate.load(str(BASELINE))
        assert baseline["params"] == DEFAULT_PARAMS
        params = baseline["params"]
        current = collect_diag_metrics(
            size=params["size"],
            seed=params["seed"],
            samples=params["samples"],
            n_targets=params["n_targets"],
            step_n=params["step_n"],
        )
        cmp = diag_gate(current, baseline)
        assert cmp.ok, cmp.summary()


class TestCLI:
    def _collect(self, tmp_path, *extra):
        from repro import cli

        out = tmp_path / "base.json"
        args = [
            "diag", "collect", "--out", str(out),
            "--size", str(SMALL["size"]),
            "--samples", str(SMALL["samples"]),
            "--targets", str(SMALL["n_targets"]),
            "--step-n", str(SMALL["step_n"]),
        ]
        assert cli.main(args + list(extra)) == 0
        return out

    def test_collect_then_compare_passes(self, tmp_path, capsys):
        from repro import cli

        out = self._collect(tmp_path)
        assert cli.main(["diag", "compare", "--baseline", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        from repro import cli

        out = self._collect(tmp_path)
        rc = cli.main(
            ["diag", "compare", "--baseline", str(out),
             "--noise-sigma", "30"]
        )
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        from repro import cli

        rc = cli.main(
            ["diag", "compare", "--baseline", str(tmp_path / "nope.json")]
        )
        assert rc == 2
        assert "no baseline" in capsys.readouterr().err

    def test_compare_accepts_a_current_metrics_file(self, tmp_path):
        from repro import cli

        out = self._collect(tmp_path)
        current = tmp_path / "current.json"
        gate.save(str(current), diag_payload(collect_diag_metrics(**SMALL)))
        assert cli.main(
            ["diag", "compare", str(current), "--baseline", str(out)]
        ) == 0

    def test_diag_report_without_store_runs_live(self, capsys):
        from repro import cli

        assert cli.main(["diag", "report", "--size", "40"]) == 0
        out = capsys.readouterr().out
        for target in ("## zlib", "## lzw", "## bzip2"):
            assert target in out

    def test_diag_report_missing_store_exits_two(self, tmp_path, capsys):
        from repro import cli

        rc = cli.main(
            ["diag", "report", "--store", str(tmp_path / "none.trstore")]
        )
        assert rc == 2
        assert "no trace store" in capsys.readouterr().err
