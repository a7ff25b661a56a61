"""Multi-sink observability: globs, merged reads, live following.

A sharded cluster campaign writes one obs sink per worker shard; `obs
report`/`obs watch` must read them as one stream.  The invariant under
test: counter snapshots are cumulative per *process*, so the merge
keys last-snapshot-per-``(sink, pid)`` and then sums — two shard sinks
whose workers happen to share a pid namespace still aggregate
correctly, while single-sink reads keep the historical per-pid merge.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    MultiSinkFollower,
    SinkFollower,
    expand_sinks,
    load_events,
    make_follower,
    merge_events,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def write_sink(path, events):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def counters_event(pid, value, ts=0.0):
    return {
        "kind": "counters",
        "pid": pid,
        "ts": ts,
        "counters": {"campaign.ok": value},
        "histograms": {},
    }


class TestExpandSinks:
    def test_plain_paths_pass_through_sorted_deduped(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert expand_sinks([b, a, b]) == [a, b]

    def test_glob_expands_to_matches(self, tmp_path):
        for name in ("shard-w0", "shard-w1"):
            write_sink(tmp_path / name / "obs.jsonl", [])
        paths = expand_sinks(str(tmp_path / "shard-*" / "obs.jsonl"))
        assert [p.split("/")[-2] for p in paths] == ["shard-w0", "shard-w1"]

    def test_single_string_is_not_iterated_charwise(self, tmp_path):
        assert expand_sinks(str(tmp_path / "x.jsonl")) == [
            str(tmp_path / "x.jsonl")
        ]


class TestLoadEventsMulti:
    def test_no_match_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no obs sink matches"):
            load_events(str(tmp_path / "shard-*" / "obs.jsonl"))
        with pytest.raises(FileNotFoundError, match="no obs sink matches"):
            load_events([str(tmp_path / "missing.jsonl")])

    def test_single_concrete_path_behaves_like_load_events(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        write_sink(sink, [counters_event(1, 3)])
        events = load_events([str(sink)])
        assert events == load_events(str(sink)) == [counters_event(1, 3)]
        assert "_src" not in events[0]  # historical single-sink shape

    def test_multi_sink_tags_source_and_sorts_by_ts(self, tmp_path):
        write_sink(
            tmp_path / "shard-w0" / "obs.jsonl",
            [{"kind": "log", "msg": "late", "ts": 5.0}],
        )
        write_sink(
            tmp_path / "shard-w1" / "obs.jsonl",
            [{"kind": "log", "msg": "early", "ts": 1.0}],
        )
        events = load_events(str(tmp_path / "shard-*" / "obs.jsonl"))
        assert [e["msg"] for e in events] == ["early", "late"]
        assert events[0]["_src"].endswith("shard-w1/obs.jsonl")
        assert events[1]["_src"].endswith("shard-w0/obs.jsonl")


class TestMergeAcrossSinks:
    def test_colliding_pids_across_sinks_sum(self, tmp_path):
        """Two shard sinks, same pid 7 in each (containers, separate
        hosts): the merge must sum them, not let one shadow the other."""
        write_sink(
            tmp_path / "shard-w0" / "obs.jsonl",
            [counters_event(7, 2), counters_event(7, 3)],  # cumulative
        )
        write_sink(
            tmp_path / "shard-w1" / "obs.jsonl",
            [counters_event(7, 4)],
        )
        events = load_events(str(tmp_path / "shard-*" / "obs.jsonl"))
        merged = merge_events(events)
        assert merged["counters"]["campaign.ok"] == 7  # 3 (last of w0) + 4

    def test_single_sink_same_pid_keeps_last_snapshot_only(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        write_sink(sink, [counters_event(7, 2), counters_event(7, 3)])
        merged = merge_events(load_events(str(sink)))
        assert merged["counters"]["campaign.ok"] == 3  # not 5


class TestMakeFollower:
    def test_plain_path_gets_the_incremental_follower(self, tmp_path):
        assert isinstance(
            make_follower(str(tmp_path / "obs.jsonl")), SinkFollower
        )

    def test_glob_or_list_gets_the_multi_follower(self, tmp_path):
        assert isinstance(
            make_follower(str(tmp_path / "shard-*" / "obs.jsonl")),
            MultiSinkFollower,
        )
        assert isinstance(
            make_follower([str(tmp_path / "a"), str(tmp_path / "b")]),
            MultiSinkFollower,
        )


class TestMultiSinkFollower:
    def test_late_appearing_shard_is_picked_up(self, tmp_path):
        """A worker that registers mid-campaign creates its shard sink
        after the watch started; the next poll must include it."""
        pattern = str(tmp_path / "shard-*" / "obs.jsonl")
        write_sink(
            tmp_path / "shard-w0" / "obs.jsonl",
            [{"kind": "log", "msg": "w0", "ts": 1.0}],
        )
        follower = MultiSinkFollower(pattern)
        assert [e["msg"] for e in follower.poll()] == ["w0"]
        write_sink(
            tmp_path / "shard-w1" / "obs.jsonl",
            [{"kind": "log", "msg": "w1", "ts": 2.0}],
        )
        events = follower.poll()
        assert [e["msg"] for e in events] == ["w1"]
        assert events[0]["_src"].endswith("shard-w1/obs.jsonl")
        assert follower.poll() == []  # each event delivered once

    def test_corrupt_counts_sum_across_sinks(self, tmp_path):
        pattern = str(tmp_path / "s*.jsonl")
        (tmp_path / "s1.jsonl").write_text("{broken\n")
        (tmp_path / "s2.jsonl").write_text("{also broken\n")
        follower = MultiSinkFollower(pattern)
        assert follower.poll() == []
        assert follower.corrupt == 2
