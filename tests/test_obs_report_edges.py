"""Report-path edge cases: empty sinks, counters-only streams,
interleaved multi-pid spans, histogram quantiles, and warning dedupe.

These are the shapes a real multi-process campaign sink takes when
things go sideways — workers that die before their first snapshot,
sinks with only counters, spans whose parents never flushed — and the
quantile/dedupe features layered onto the report in this PR.
"""

import pytest

from repro import obs
from repro.obs.core import Histogram, _quantile_bin, _quantile_bin_value
from repro.obs.report import (
    format_event,
    merge_events,
    render_report,
    render_span_tree,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestEmptySink:
    def test_empty_file_loads_no_events(self, tmp_path):
        sink = tmp_path / "empty.jsonl"
        sink.write_text("")
        assert obs.load_events(str(sink)) == []

    def test_empty_events_render_placeholders(self):
        merged = merge_events([])
        assert merged["counters"] == {}
        assert merged["metrics"] == {}
        assert merged["warnings"] == []
        text = render_report([])
        assert "0 events" in text
        assert "no counters" in text


class TestCountersOnly:
    def test_report_renders_without_spans_or_logs(self):
        events = [
            {"kind": "counters", "pid": 1, "ts": 1.0,
             "counters": {"jobs": 4}, "histograms": {}},
        ]
        text = render_report(events)
        assert "## counters" in text
        assert "jobs" in text
        assert "## spans" not in text
        assert "## histograms" not in text

    def test_dead_worker_without_snapshot_is_invisible(self):
        # pid 2 logged but died before its counters flush: its log
        # still counts, its (absent) counters contribute nothing.
        events = [
            {"kind": "counters", "pid": 1, "ts": 1.0,
             "counters": {"jobs": 4}, "histograms": {}},
            {"kind": "log", "pid": 2, "ts": 1.5, "level": "info",
             "msg": "worker up"},
        ]
        merged = merge_events(events)
        assert merged["counters"] == {"jobs": 4}
        assert merged["n_logs"] == 1


class TestInterleavedSpans:
    def _events(self):
        # Two workers' spans interleaved in sink order; pid 2's parent
        # span never flushed (killed), so its child must surface as a
        # root instead of vanishing.
        return [
            {"kind": "span", "pid": 1, "id": "a", "parent": None,
             "name": "campaign.run", "dur": 2.0, "ts": 1.0},
            {"kind": "span", "pid": 2, "id": "x", "parent": "ghost",
             "name": "campaign.job", "dur": 0.5, "ts": 1.2},
            {"kind": "span", "pid": 1, "id": "b", "parent": "a",
             "name": "campaign.job", "dur": 0.7, "ts": 1.4,
             "status": "error"},
        ]

    def test_aggregates_merge_across_pids(self):
        merged = merge_events(self._events())
        assert merged["spans"]["campaign.job"]["count"] == 2
        assert merged["spans"]["campaign.job"]["errors"] == 1
        assert merged["spans"]["campaign.job"]["max"] == 0.7

    def test_orphaned_span_groups_under_synthetic_root(self):
        tree = render_span_tree(self._events())
        lines = tree.splitlines()
        # campaign.run root with its child indented under it
        assert any(l.startswith("campaign.run") for l in lines)
        assert any(l.startswith("  campaign.job") for l in lines)
        # the orphan is never dropped: it renders under the synthetic
        # "(orphaned: ...)" group, indented one level
        marker = next(l for l in lines if l.startswith("(orphaned:"))
        assert "1 span" in marker
        after = lines[lines.index(marker) + 1:]
        assert any(l.startswith("  campaign.job  500.00 ms") for l in after)

    def test_orphan_keeps_its_own_subtree(self):
        events = self._events() + [
            {"kind": "span", "pid": 2, "id": "y", "parent": "x",
             "name": "store.append", "dur": 0.1, "ts": 1.3},
        ]
        tree = render_span_tree(events)
        lines = tree.splitlines()
        start = next(
            i for i, l in enumerate(lines) if l.startswith("(orphaned:")
        )
        # the orphan's own child nests beneath it inside the group
        assert any(
            l.startswith("    store.append") for l in lines[start + 1:]
        )

    def test_orphan_overflow_is_counted_not_dropped(self):
        events = [
            {"kind": "span", "pid": 2, "id": f"o{i}", "parent": "ghost",
             "name": "campaign.job", "dur": 0.1, "ts": 1.0 + i}
            for i in range(12)
        ]
        tree = render_span_tree(events, max_roots=10)
        assert "(orphaned: 12 spans" in tree
        assert "2 more orphaned spans" in tree


class TestHistogramQuantiles:
    def test_quantiles_of_known_distribution(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        # log-spaced bins give ~±15% resolution at 8 bins/decade
        assert h.quantile(0.5) == pytest.approx(50.0, rel=0.2)
        assert h.quantile(0.95) == pytest.approx(95.0, rel=0.2)
        assert h.quantile(0.99) == pytest.approx(99.0, rel=0.2)

    def test_quantiles_clamp_to_observed_range(self):
        h = Histogram()
        h.observe(3.0)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 3.0

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram()
        assert h.quantile(0.5) is None
        assert h.to_dict()["p50"] is None

    def test_nonpositive_values_land_in_the_zero_bin(self):
        assert _quantile_bin(0.0) == 0
        assert _quantile_bin(-5.0) == 0
        assert _quantile_bin_value(0) == 0.0
        h = Histogram()
        h.observe(0.0)
        h.observe(0.0)
        assert h.quantile(0.5) == 0.0

    def test_to_dict_carries_sparse_bins(self):
        h = Histogram()
        h.observe(1.0)
        h.observe(1.0)
        payload = h.to_dict()
        assert payload["count"] == 2
        (idx, n) = next(iter(payload["bins"].items()))
        assert n == 2
        assert _quantile_bin_value(int(idx)) == pytest.approx(1.0, rel=0.2)

    def test_merge_dict_folds_bins_across_processes(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0, 4.0):
            a.observe(v)
        for v in (8.0, 16.0, 32.0):
            b.observe(v)
        a.merge_dict(b.to_dict())
        assert a.count == 6
        assert a.quantile(0.5) == pytest.approx(4.0, rel=0.3)
        assert a.maximum == 32.0

    def test_merge_tolerates_pre_quantile_payloads(self):
        h = Histogram()
        h.observe(2.0)
        h.merge_dict({"count": 3, "total": 9.0, "min": 1.0, "max": 5.0})
        assert h.count == 4
        # quantiles degrade gracefully: only binned samples contribute
        assert h.quantile(0.5) is not None

    def test_report_renders_quantile_columns(self):
        obs.enable()
        for v in (0.1, 0.2, 0.3, 0.4):
            obs.observe("lat", v)
        snapshot = obs.histograms_snapshot()
        events = [{"kind": "counters", "pid": 1, "counters": {},
                   "histograms": snapshot}]
        text = render_report(events)
        assert "p50" in text and "p95" in text and "p99" in text
        row = next(l for l in text.splitlines() if l.startswith("lat"))
        assert "-" not in row  # all three quantiles resolved


class TestMetricsEvents:
    def test_publish_metrics_filters_non_numeric_and_casts_bools(self):
        obs.enable()
        obs.publish_metrics(
            "campaign.job",
            {"bit_accuracy": 0.9, "exact_found": True, "name": "zlib"},
        )
        (event,) = [e for e in obs.recent() if e["kind"] == "metrics"]
        assert event["values"] == {"bit_accuracy": 0.9, "exact_found": 1}

    def test_publish_metrics_disabled_is_a_noop(self):
        obs.publish_metrics("campaign.job", {"bit_accuracy": 0.9})
        assert obs.recent() == []

    def test_all_non_numeric_payload_emits_nothing(self):
        obs.enable()
        obs.publish_metrics("campaign.job", {"name": "zlib"})
        assert [e for e in obs.recent() if e["kind"] == "metrics"] == []

    def test_merge_and_report_aggregate_metrics(self):
        events = [
            {"kind": "metrics", "name": "campaign.job", "ts": 1.0,
             "pid": 1, "values": {"bit_accuracy": 0.8}},
            {"kind": "metrics", "name": "campaign.job", "ts": 2.0,
             "pid": 2, "values": {"bit_accuracy": 1.0}},
        ]
        merged = merge_events(events)
        agg = merged["metrics"]["campaign.job.bit_accuracy"]
        assert agg["count"] == 2
        assert agg["mean"] == pytest.approx(0.9)
        assert agg["last"] == 1.0
        text = render_report(events)
        assert "## job metrics" in text
        assert "campaign.job.bit_accuracy" in text

    def test_tail_formats_metrics_lines(self):
        line = format_event(
            {"kind": "metrics", "name": "campaign.job", "ts": 3.0,
             "values": {"bit_accuracy": 0.875}}
        )
        assert "metrics" in line
        assert "bit_accuracy=0.875" in line


class TestWarningDedupe:
    def _warn(self, pid, key="disk", msg="slow disk"):
        return {"kind": "log", "level": "warning", "pid": pid,
                "msg": msg, "ts": 1.0, "fields": {"warn_key": key}}

    def test_same_key_collapses_across_pids(self):
        rows = merge_events(
            [self._warn(1), self._warn(2), self._warn(1)]
        )["warnings"]
        (row,) = rows
        assert row["count"] == 3
        assert row["pids"] == [1, 2]

    def test_rows_sort_by_count_then_key(self):
        rows = merge_events(
            [self._warn(1, key="b"), self._warn(1, key="a"),
             self._warn(2, key="a")]
        )["warnings"]
        assert [r["key"] for r in rows] == ["a", "b"]

    def test_missing_key_dedupes_by_message(self):
        events = [
            {"kind": "log", "level": "warning", "pid": 1,
             "msg": "no key here", "ts": 1.0},
            {"kind": "log", "level": "warning", "pid": 1,
             "msg": "no key here", "ts": 2.0},
        ]
        (row,) = merge_events(events)["warnings"]
        assert row["count"] == 2

    def test_warn_once_emits_the_key_field(self):
        obs.enable()
        obs.warn_once("disk", "slow disk", device="sda")
        (event,) = [e for e in obs.recent() if e["kind"] == "log"]
        assert event["fields"]["warn_key"] == "disk"
        assert event["fields"]["device"] == "sda"
        (row,) = merge_events([event])["warnings"]
        assert row["key"] == "disk"

    def test_report_renders_the_warning_section(self):
        text = render_report([self._warn(1), self._warn(2)])
        assert "## warnings" in text
        assert "[x2, 2 pids] slow disk" in text
