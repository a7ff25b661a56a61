"""Result store persistence, aggregation, reporting, and the CLI."""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    aggregate_records,
    build_dossier,
    render_report,
)
from repro.campaign.store import JobRecord
from repro.cli import main


def record(job_id="j1", params=None, status="ok", metrics=None, trial=0):
    return JobRecord(
        job_id=job_id,
        experiment="e",
        params=params or {"x": 1},
        trial=trial,
        seed=7,
        status=status,
        attempts=1,
        duration_seconds=0.5,
        metrics=metrics,
        error=None if status == "ok" else "boom",
    )


class TestStore:
    def test_manifest_fields(self, tmp_path):
        spec = CampaignSpec(name="m", experiment="test_echo", grid={"x": [1]})
        store = ResultStore(tmp_path / "c")
        manifest = store.open_campaign(spec)
        assert manifest["spec_hash"] == spec.spec_hash()
        assert manifest["n_jobs"] == 1
        assert "started_at" in manifest and "git_revision" in manifest
        assert store.load_spec().to_dict() == spec.to_dict()

    def test_append_and_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.root.mkdir(parents=True)
        r = record(metrics={"a": 1.5})
        store.append(r)
        loaded = store.load_records()["j1"]
        assert loaded.to_dict() == r.to_dict()

    def test_last_record_per_job_wins(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.root.mkdir(parents=True)
        store.append(record(status="failed"))
        store.append(record(status="ok", metrics={"a": 1}))
        assert store.load_records()["j1"].ok

    def test_torn_final_line_tolerated(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.root.mkdir(parents=True)
        store.append(record(job_id="good", metrics={"a": 1}))
        with open(store.results_path, "a") as handle:
            handle.write('{"job_id": "torn", "exp')  # process died mid-write
        records = store.load_records()
        assert set(records) == {"good"}

    def test_finalize_stamps_outcomes(self, tmp_path):
        """Outcomes count the store's records by status, plus the jobs
        a cancel dropped."""
        spec = CampaignSpec(name="m", experiment="test_echo", grid={"x": [1, 2, 3]})
        store = ResultStore(tmp_path / "c")
        store.open_campaign(spec)
        store.extend([record("a"), record("b", status="failed")])
        store.finalize(cancelled=1)
        manifest = store.load_manifest()
        assert manifest["outcomes"] == {"ok": 1, "failed": 1, "cancelled": 1}
        assert manifest["finished_at"] >= manifest["started_at"]
        assert "2 job points" in build_dossier(store)


class TestAggregation:
    def test_cells_pool_trials(self):
        records = [
            record(job_id="a", trial=0, metrics={"v": 1.0}),
            record(job_id="b", trial=1, metrics={"v": 3.0}),
            record(job_id="c", params={"x": 2}, metrics={"v": 9.0}),
        ]
        cells = aggregate_records(records)
        assert len(cells) == 2
        first = next(c for c in cells if c.params == {"x": 1})
        assert first.n_ok == 2
        assert first.mean("v") == 2.0
        assert first.ci95("v") > 0.0

    def test_failures_counted_not_averaged(self):
        records = [
            record(job_id="a", metrics={"v": 2.0}),
            record(job_id="b", status="failed"),
            record(job_id="c", status="timeout"),
        ]
        (cell,) = aggregate_records(records)
        assert cell.n_ok == 1 and cell.n_failed == 2
        assert cell.mean("v") == 2.0  # failures don't drag the mean

    def test_bool_metrics_become_rates(self):
        records = [
            record(job_id="a", metrics={"hit": True}),
            record(job_id="b", metrics={"hit": False}),
        ]
        (cell,) = aggregate_records(records)
        assert cell.mean("hit") == 0.5

    def test_single_trial_has_zero_ci(self):
        (cell,) = aggregate_records([record(metrics={"v": 4.0})])
        assert cell.ci95("v") == 0.0


class TestReport:
    def run_campaign(self, tmp_path):
        spec = CampaignSpec(
            name="rep",
            experiment="test_echo",
            grid={"x": [1, 2]},
            trials=2,
            base_seed=3,
        )
        store = ResultStore(tmp_path / "rep")
        CampaignRunner(spec, store).run()
        return store

    def test_report_contains_cells_and_counts(self, tmp_path):
        import tests.test_campaign_runner  # registers test_echo

        store = self.run_campaign(tmp_path)
        text = render_report(store)
        assert "# Campaign — rep" in text
        assert "`test_echo`" in text
        assert "4 recorded (4 ok, 0 failed)" in text
        assert "| x | jobs ok" in text
        assert "value" in text

    def test_report_lists_failures(self):
        from repro.campaign.report import render_failures

        text = render_failures([record(status="failed")])
        assert "boom" in text and "failed" in text


class TestCampaignCli:
    def write_spec(self, tmp_path, **overrides):
        spec = {
            "name": "cli",
            "experiment": "lzw_recovery",
            "grid": {"size": [30, 40]},
            "trials": 1,
            "base_seed": 1,
            "max_retries": 1,
            "retry_backoff": 0.0,
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_resume_report(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "run", str(spec_path), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "manifest.json").exists()
        assert len((out / "results.jsonl").read_text().splitlines()) == 2
        capsys.readouterr()

        assert main(["campaign", "resume", str(out), "--quiet"]) == 0
        text = capsys.readouterr().out
        assert "2 skipped" in text

        assert main(["campaign", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "# Campaign — cli" in text
        assert "exact_found" in text

    def test_run_prints_summary_once(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "run", str(spec_path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        summaries = [line for line in lines if line.startswith("campaign: ")]
        assert len(summaries) == 1, lines
        assert summaries[0].startswith("campaign: 2 ok in ")

    def test_partial_failure_exits_3(self, tmp_path, capsys):
        spec_path = self.write_spec(
            tmp_path,
            inject_failures={"count": 1, "attempts": 5, "mode": "exception"},
        )
        out = tmp_path / "out"
        assert main(["campaign", "run", str(spec_path), "--out", str(out),
                     "--quiet"]) == 3
        capsys.readouterr()

    def test_all_failed_exits_1(self, tmp_path, capsys):
        spec_path = self.write_spec(
            tmp_path,
            inject_failures={"count": 2, "attempts": 5, "mode": "exception"},
        )
        out = tmp_path / "out"
        assert main(["campaign", "run", str(spec_path), "--out", str(out),
                     "--quiet"]) == 1
        capsys.readouterr()

    def test_report_missing_dir_errors(self, tmp_path, capsys):
        assert main(["campaign", "report", str(tmp_path / "nope")]) == 2
        assert "no campaign manifest" in capsys.readouterr().err

    def test_list_experiments(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "lzw_recovery" in out and "sgx_attack" in out


class TestAesTargetGuard:
    def test_empty_input_rejected_with_clear_error(self, capsys):
        assert main(["taintchannel", "aes", "--random", "0"]) == 2
        err = capsys.readouterr().err
        assert "non-empty input" in err

    def test_target_for_raises_for_empty_data(self):
        from repro.core.taintchannel import target_for

        with pytest.raises(ValueError, match="non-empty input"):
            target_for("aes", b"")
