"""The campaign dossier (``repro report``) and its CLI surfaces.

``build_dossier`` merges four already-tested views — campaign records,
their metrics timeseries, the obs sink summary, and the stitched trace
— into one static markdown artifact.  These tests pin the section
contract, the graceful degradation when a view's inputs are missing,
and the CLI wiring for ``repro report``, ``obs report --trace``,
``obs export --format chrome-trace``, and ``perf profile --sites``.
"""

import hashlib
import json

import pytest

from repro import cli, obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    build_dossier,
    discover_sinks,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def run_campaign(tmp_path, name="dossier", with_sink=False):
    spec = CampaignSpec(
        name=name,
        experiment="lzw_recovery",
        grid={"size": [30, 40]},
        trials=1,
    )
    store = ResultStore(tmp_path / name)
    if with_sink:
        obs.enable(sink_path=str(store.root / "obs.jsonl"))
    result = CampaignRunner(spec, store).run()
    if with_sink:
        obs.flush()
        obs.reset()
    return result, store


class TestDiscoverSinks:
    def test_finds_root_and_shard_sinks(self, tmp_path):
        root = tmp_path / "c"
        (root / "shard-w0").mkdir(parents=True)
        (root / "obs.jsonl").write_text("")
        (root / "shard-w0" / "obs.jsonl").write_text("")
        found = discover_sinks(root)
        assert [p.endswith("obs.jsonl") for p in found] == [True, True]

    def test_empty_campaign_dir_finds_nothing(self, tmp_path):
        assert discover_sinks(tmp_path) == []


class TestBuildDossier:
    def test_all_four_sections_from_a_real_run(self, tmp_path):
        _, store = run_campaign(tmp_path, with_sink=True)
        text = build_dossier(store)
        assert text.startswith("# Campaign — dossier")
        assert "## Results by cell" in text
        assert "## Diagnostics timeseries" in text
        assert "## Observability" in text
        assert "## Trace" in text
        assert "campaign.ok" in text
        assert "cluster.campaign" in text  # the scheduler's root span
        assert "## critical path" in text

    def test_diag_is_derived_when_missing(self, tmp_path):
        _, store = run_campaign(tmp_path)
        text = build_dossier(store)
        # derived on the fly from the records
        assert "## Diagnostics timeseries" in text
        assert "| metric " in text

    def test_degrades_without_any_sink(self, tmp_path):
        _, store = run_campaign(tmp_path)
        text = build_dossier(store)
        assert "## Observability" in text
        assert "no obs sink" in text

    def test_explicit_sinks_override_discovery(self, tmp_path):
        _, store = run_campaign(tmp_path, with_sink=True)
        elsewhere = tmp_path / "elsewhere.jsonl"
        elsewhere.write_text(
            json.dumps(
                {"kind": "counters", "pid": 9, "ts": 1.0,
                 "counters": {"only.here": 3}, "histograms": {}}
            )
            + "\n"
        )
        text = build_dossier(store, sinks=[str(elsewhere)])
        assert "only.here" in text
        assert "campaign.ok" not in text


class TestReportCli:
    def test_report_writes_dossier_file(self, tmp_path, capsys):
        _, store = run_campaign(tmp_path, with_sink=True)
        out = tmp_path / "dossier.md"
        rc = cli.main(
            ["report", str(store.root), "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "## Observability" in text
        assert "## Trace" in text

    def test_report_leaves_the_campaign_directory_unchanged(self, tmp_path, capsys):
        """``repro report`` is a read: every file of the run directory
        hashes the same before and after, and none is added."""
        _, store = run_campaign(tmp_path, with_sink=True)

        def snapshot():
            return {
                str(path.relative_to(store.root)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(store.root.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        assert "diag.json" not in before
        assert cli.main(["report", str(store.root)]) == 0
        assert "## Diagnostics timeseries" in capsys.readouterr().out
        assert snapshot() == before

    def test_report_prints_to_stdout_by_default(self, tmp_path, capsys):
        _, store = run_campaign(tmp_path)
        assert cli.main(["report", str(store.root)]) == 0
        assert "## Results by cell" in capsys.readouterr().out

    def test_missing_campaign_dir_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope")]) == 2
        assert "no campaign" in capsys.readouterr().err

    def test_obs_report_trace_flag(self, tmp_path, capsys):
        _, store = run_campaign(tmp_path, with_sink=True)
        sink = store.root / "obs.jsonl"
        assert cli.main(["obs", "report", str(sink), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "## span tree" in out
        assert "## critical path" in out

    def test_obs_export_chrome_trace_round_trips(self, tmp_path, capsys):
        _, store = run_campaign(tmp_path, with_sink=True)
        sink = store.root / "obs.jsonl"
        out = tmp_path / "trace.json"
        rc = cli.main(
            ["obs", "export", str(sink),
             "--format", "chrome-trace", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "cluster.campaign" in names
        assert "campaign.job" in names

    def test_obs_export_default_format_unchanged(self, tmp_path, capsys):
        _, store = run_campaign(tmp_path, with_sink=True)
        sink = store.root / "obs.jsonl"
        assert cli.main(["obs", "export", str(sink)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "counters" in doc  # the merged-summary export


class TestPerfProfileSites:
    def test_sites_table_renders(self, capsys):
        rc = cli.main(
            ["perf", "profile", "--sites", "lzw", "--size", "120"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "site access profile of target 'lzw'" in out
        assert "compress/htab[hp]" in out
        assert "tainted" in out

    def test_site_rows_share_sums_to_one(self):
        from repro.perf import site_access_profile
        from repro.workloads import random_bytes

        rows = site_access_profile("lzw", random_bytes(100, seed=3))
        assert rows
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        assert all(r["accesses"] > 0 for r in rows)
        # gadget reports key on the same site ids: every row is a site
        assert all("/" in r["site"] for r in rows)
