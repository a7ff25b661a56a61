"""The diagnostics rows of the claims gate: directions, tolerances,
and the committed baseline.

The survey leakage meters (``LEAK``), the channel-health probes
(``CHANNEL``), the synthesised LZW mitigation (``SYNTH``) and the
oracle MI (``ORACLE``) are claims of ``repro.diag.claims``; these tests
assert against the session's one collection (the ``claims`` fixture).
``repro diag compare`` passes against the committed
``benchmarks/claims_baseline.json`` and fails (exit 1) when a
regression is injected by bumping the cache noise σ of ``CHANNEL``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import gate
from repro.diag.claims import (
    ABS_EPSILON,
    CLAIMS_PARAMS,
    CLAIMS,
    DEFAULT_TOLERANCE,
    channel,
    claim_rows,
    metric_direction,
)

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "claims_baseline.json"

DIAG_IDS = ("LEAK", "CHANNEL", "SYNTH", "ORACLE")


def diag_payload(metrics, params=None):
    """What ``repro diag claims`` writes."""
    return gate.payload(
        CLAIMS_PARAMS if params is None else params, metrics, metric_direction
    )


def diag_gate(current, baseline):
    """What ``repro diag compare`` checks."""
    return gate.compare(
        current, baseline, DEFAULT_TOLERANCE, abs_epsilon=ABS_EPSILON
    )


def diag_rows(metrics):
    """The rows of the four diagnostics claims."""
    return {
        k: v for k, v in metrics.items() if k.split(".")[1] in DIAG_IDS
    }


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
        payload = diag_payload({"a.bit_accuracy": 0.5})
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
    def test_collection_is_deterministic(self, claims):
        """A second run of the four claims gives the session's rows."""
        rerun = {}
        for claim_id in DIAG_IDS:
            rerun.update(claim_rows(claim_id, CLAIMS[claim_id].measure()))
        assert rerun == diag_rows(claims)

    def test_collection_covers_gadgets_and_probes(self, claims):
        for prefix in (
            "LEAK.zlib.", "LEAK.lzw.", "LEAK.bzip2.", "CHANNEL.timing.",
            "CHANNEL.eviction.", "CHANNEL.single_step.", "SYNTH.mitigate.lzw.",
            "ORACLE.oracle.size.",
        ):
            assert any(k.startswith(f"claim.{prefix}") for k in claims), prefix

    def test_gate_passes_on_self(self, claims):
        rows = diag_rows(claims)
        assert diag_gate(rows, diag_payload(rows)).ok

    def test_noise_injection_regresses_the_gate(self, claims):
        base = diag_payload(diag_rows(claims))
        injected = {
            **diag_rows(claims),
            **claim_rows("CHANNEL", channel(noise_sigma=30.0)),
        }
        cmp = diag_gate(injected, base)
        assert not cmp.ok
        regressed = {row.name for row in cmp.regressions}
        assert "claim.CHANNEL.timing.margin_sigma" in regressed
        assert "claim.CHANNEL.timing_margin_over_5_sigma.holds" in regressed

    def test_committed_baseline_compares_clean(self, claims):
        """The diagnostics rows of the repo's baseline pass, and each
        of their verdicts holds."""
        baseline = gate.load(str(BASELINE))
        assert baseline["params"] == CLAIMS_PARAMS
        rows = diag_rows(baseline["metrics"])
        assert rows and set(rows) == set(diag_rows(claims))
        cmp = diag_gate(diag_rows(claims), {**baseline, "metrics": rows})
        assert cmp.ok, cmp.summary()
        holds = [k for k in rows if k.endswith(".holds")]
        assert len(holds) == 16 and all(claims[k] == 1 for k in holds)


class TestCLI:
    def _save(self, path, metrics):
        gate.save(str(path), diag_payload(metrics))
        return path

    def test_collect_then_compare_passes(self, claims, tmp_path, capsys):
        from repro import cli

        current = self._save(tmp_path / "claims.json", claims)
        assert cli.main(
            ["diag", "compare", str(current), "--baseline", str(BASELINE)]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_one(self, monkeypatch, capsys):
        """``--noise-sigma`` re-measures the CHANNEL claim alone and gates
        only its rows."""
        import repro.diag.claims as claims_mod

        def unexpected(*args, **kwargs):
            raise AssertionError("the noise drill measured another claim")

        monkeypatch.setattr(claims_mod, "collect_claim_metrics", unexpected)
        for claim_id, claim in CLAIMS.items():
            if claim_id != "CHANNEL":
                monkeypatch.setitem(
                    CLAIMS, claim_id, dataclasses.replace(claim, measure=unexpected)
                )
        from repro import cli

        rc = cli.main(
            ["diag", "compare", "--baseline", str(BASELINE),
             "--noise-sigma", "30"]
        )
        assert rc == 1
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("claim.")
        ]
        assert rows and all(r[0].startswith("claim.CHANNEL.") for r in rows)
        regressed = [r[0] for r in rows if "REGRESSED" in r]
        assert "claim.CHANNEL.timing.margin_sigma" in regressed

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        from repro import cli

        rc = cli.main(
            ["diag", "compare", "--baseline", str(tmp_path / "nope.json")]
        )
        assert rc == 2
        assert "no baseline" in capsys.readouterr().err

    def test_compare_accepts_a_current_metrics_file(self, claims, tmp_path):
        from repro import cli

        baseline = self._save(tmp_path / "base.json", diag_rows(claims))
        current = self._save(tmp_path / "current.json", diag_rows(claims))
        assert cli.main(
            ["diag", "compare", str(current), "--baseline", str(baseline)]
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
