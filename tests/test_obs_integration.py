"""Observability end-to-end: real campaigns, real attacks, real sinks.

Two acceptance criteria from the tentpole are pinned here:

* with observability **enabled**, a real campaign run leaves a JSONL
  sink from which ``obs report`` renders non-empty counter and span
  output (asserted, not eyeballed);
* with observability enabled or disabled, experiment **metrics are
  byte-identical** — instrumentation never touches a simulated cache or
  noise RNG stream, so every pinned metrics digest holds.
"""

import json

import pytest

from repro import obs
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore
from repro.perf.harness import metrics_digest


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def _run_campaign(tmp_path, name="obs-int"):
    spec = CampaignSpec(
        name=name,
        experiment="lzw_recovery",
        grid={"size": [30, 40]},
        trials=1,
    )
    store = ResultStore(tmp_path / name)
    return CampaignRunner(spec, store).run(), store


class TestCampaignSink:
    def test_campaign_run_fills_the_sink(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        result, _ = _run_campaign(tmp_path)
        obs.disable()
        assert result.counts == {"ok": 2}

        events = obs.load_events(str(sink))
        merged = obs.merge_events(events)
        assert merged["counters"]["campaign.ok"] == 2
        assert merged["counters"]["campaign.attempts"] == 2
        span_names = set(merged["spans"])
        assert "cluster.campaign" in span_names
        assert "campaign.job" in span_names
        assert merged["spans"]["campaign.job"]["count"] == 2
        assert merged["histograms"]["campaign.job_seconds"]["count"] == 2
        assert merged["histograms"]["store.append_seconds"]["count"] == 2

    def test_obs_report_renders_nonempty_output(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        _run_campaign(tmp_path)
        obs.disable()

        text = obs.render_report(obs.load_events(str(sink)))
        assert "## counters" in text
        assert "campaign.ok" in text
        assert "## spans" in text
        assert "campaign.job" in text

    def test_obs_cli_report_from_campaign_run(self, tmp_path, capsys):
        """The CLI acceptance path: campaign run --obs, then obs report."""
        from repro import cli

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "obs-cli",
                    "experiment": "lzw_recovery",
                    "grid": {"size": [30]},
                }
            )
        )
        sink = tmp_path / "obs.jsonl"
        rc = cli.main(
            [
                "campaign", "run", str(spec_path),
                "--out", str(tmp_path / "run"),
                "--quiet",
                "--obs", str(sink),
            ]
        )
        assert rc == 0
        obs.reset()  # the CLI enabled obs in-process; stop recording

        capsys.readouterr()
        assert cli.main(["obs", "report", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "campaign.ok" in out
        assert "cluster.campaign" in out

    def test_missing_sink_is_a_clean_error(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no obs sink" in capsys.readouterr().err


class TestNonPerturbation:
    """Enabling observability must not change any experiment metric."""

    def _digests(self, fn):
        obs.reset()
        off = metrics_digest(fn())
        obs.enable()
        on = metrics_digest(fn())
        obs.reset()
        return off, on

    def test_sgx_attack_metrics_identical(self):
        from repro.core.zipchannel.sgx_attack import run_extraction_experiment

        off, on = self._digests(
            lambda: run_extraction_experiment(size=60, seed=3)
        )
        assert off == on

    def test_taintchannel_metrics_identical(self):
        from repro.core.taintchannel.tool import run_gadget_scan
        from repro.workloads import random_bytes

        data = random_bytes(120, seed=5)
        off, on = self._digests(lambda: run_gadget_scan("lzw", data))
        assert off == on

    def test_diag_metrics_identical(self, claims):
        """The diagnostics claims publish through obs but never read
        from it: their rows must not move when a sink is recording (the
        session's collection ran with obs off)."""
        from repro.diag.claims import CLAIMS, claim_rows

        diag_ids = ("LEAK", "CHANNEL", "SYNTH", "ORACLE")
        off = {k: v for k, v in claims.items() if k.split(".")[1] in diag_ids}
        obs.enable()
        on = {}
        for claim_id in diag_ids:
            on.update(claim_rows(claim_id, CLAIMS[claim_id].measure()))
        obs.reset()
        assert metrics_digest(off) == metrics_digest(on)

    def test_leakage_metering_identical(self):
        from repro.diag import measure_gadget_live

        off, on = self._digests(
            lambda: measure_gadget_live("lzw", 40, 7).metric_dict()
        )
        assert off == on

    def test_campaign_records_identical(self, tmp_path):
        _, store_off = _run_campaign(tmp_path, name="digest-off")
        obs.enable(sink_path=str(tmp_path / "obs.jsonl"))
        _, store_on = _run_campaign(tmp_path, name="digest-on")
        obs.disable()
        metrics_off = {
            k: r.metrics for k, r in store_off.load_records().items()
        }
        metrics_on = {
            k: r.metrics for k, r in store_on.load_records().items()
        }
        assert metrics_off == metrics_on
    def test_metrics_identical_with_tracing_active(self):
        """A live trace context (trace id + remote parent + recording
        sink) must leave experiment metrics byte-identical: trace ids
        come from OS entropy, never an experiment RNG stream."""
        from repro.core.taintchannel.tool import run_gadget_scan
        from repro.obs import tracectx
        from repro.workloads import random_bytes

        data = random_bytes(120, seed=5)
        obs.reset()
        off = metrics_digest(run_gadget_scan("lzw", data))
        obs.enable()
        tracectx.begin_trace()
        with obs.span("campaign.job"):
            on = metrics_digest(run_gadget_scan("lzw", data))
        obs.reset()
        assert off == on

    def test_trace_env_adoption_never_touches_rng_streams(
        self, monkeypatch
    ):
        """REPRO_OBS_TRACE is how pool workers inherit the campaign
        trace; parsing it must not consume from random/numpy, or every
        worker's noise stream would shift by one draw."""
        import random

        from repro.obs.core import _activate_from_env

        random.seed(123)
        before = random.getstate()
        monkeypatch.setenv(obs.ENV_TRACE, "feedbeefcafe0123:41-7")
        _activate_from_env()
        assert random.getstate() == before
        numpy = pytest.importorskip("numpy")
        numpy.random.seed(123)
        np_before = numpy.random.get_state()[1].tobytes()
        _activate_from_env()
        assert numpy.random.get_state()[1].tobytes() == np_before

    def test_campaign_records_identical_under_inherited_trace(
        self, tmp_path, monkeypatch
    ):
        _, store_off = _run_campaign(tmp_path, name="trace-off")
        monkeypatch.setenv(obs.ENV_TRACE, "feedbeefcafe0123:")
        from repro.obs.core import _activate_from_env

        _activate_from_env()
        obs.enable(sink_path=str(tmp_path / "obs.jsonl"))
        _, store_on = _run_campaign(tmp_path, name="trace-on")
        obs.reset()
        metrics_off = {
            k: r.metrics for k, r in store_off.load_records().items()
        }
        metrics_on = {
            k: r.metrics for k, r in store_on.load_records().items()
        }
        assert metrics_off == metrics_on
