"""The obs sink trust boundary: damaged lines are skipped and counted.

A sink is read from disk, so any line in it may be damaged: a field of
the wrong type, valid JSON that is not an object, bytes that are not
UTF-8.  The one reader (:func:`repro.obs.watch.open_sinks`) checks each
line's envelope once.  A damaged line is skipped and counted as
corrupt; every valid line is still delivered; and every consumer of the
delivered events returns within a deadline instead of raising: the
fold (``merge_events``, ``WatchState`` + ``render_watch``), the report,
trace, tail and Chrome-trace views, and the campaign dossier.  The CLI
prints the corrupt count on stderr and exits 0.
"""

import contextlib
import json
import shutil
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli, obs
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore
from repro.campaign.dossier import build_dossier, read_campaign_sinks
from repro.obs.core import Histogram
from repro.obs.export import chrome_trace_events
from repro.obs.report import (
    format_event,
    render_report,
    render_tail,
    render_trace,
    trace_summary,
)
from repro.obs.watch import WatchState, merge_events, open_sinks, render_watch


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Turn a consumer that runs past ``seconds`` into a test failure
    instead of a hung suite."""

    def expire(signum, frame):
        raise TimeoutError(f"consumer ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """A finished one-job campaign; tests drop a sink into copies."""
    store = ResultStore(tmp_path_factory.mktemp("fuzz") / "campaign")
    spec = CampaignSpec(name="fuzz", experiment="lzw_recovery", grid={"size": [30]})
    CampaignRunner(spec, store).run()
    return store.root


def consume(events: list[dict], store_root: Path) -> None:
    """Every consumer of a sink's events, under one deadline."""
    with _time_limit(5.0):
        merge_events(events)
        render_report(events)
        render_trace(events)
        trace_summary(events)
        render_tail(events, n=5)
        for event in events:
            format_event(event)
        chrome_trace_events(events)
        state = WatchState()
        state.ingest(events)
        render_watch(state)
        build_dossier(ResultStore(store_root))


# -- valid events ------------------------------------------------------
_names = st.text(alphabet="abcdefgh._", min_size=1, max_size=10)
_ts = st.floats(min_value=1.6e9, max_value=1.8e9)
_pid = st.integers(min_value=1, max_value=99_999)
_number = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6),
)
_fields = st.dictionaries(
    _names, st.one_of(st.integers(), _names, st.booleans(), st.none()), max_size=3
)


@st.composite
def _histogram_payload(draw):
    hist = Histogram()
    for value in draw(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=6)):
        hist.observe(value)
    return hist.to_dict()


@st.composite
def _span(draw):
    pid = draw(_pid)
    event = {
        "kind": "span", "ts": draw(_ts), "name": draw(_names),
        "id": f"{pid}-{draw(st.integers(1, 50))}",
        "parent": draw(st.one_of(st.none(), st.just(f"{pid}-1"))),
        "depth": draw(st.integers(0, 4)), "dur": draw(st.floats(0.0, 10.0)),
        "status": draw(st.sampled_from(["ok", "error"])), "fields": draw(_fields),
    }
    if draw(st.booleans()):
        event["trace"] = "abc123"
    return event


_log = st.fixed_dictionaries({
    "kind": st.just("log"), "ts": _ts, "pid": _pid,
    "level": st.sampled_from(["debug", "info", "warning", "error"]),
    "msg": _names, "fields": _fields,
})
_counters = st.fixed_dictionaries({
    "kind": st.just("counters"), "ts": _ts, "pid": _pid,
    "counters": st.dictionaries(_names, _number, max_size=4),
    "histograms": st.dictionaries(_names, _histogram_payload(), max_size=2),
})
_metrics = st.fixed_dictionaries({
    "kind": st.just("metrics"), "ts": _ts, "pid": _pid, "name": _names,
    "fields": _fields, "values": st.dictionaries(_names, _number, min_size=1, max_size=4),
})
_event = st.one_of(_span(), _log, _counters, _metrics)

# -- damage ------------------------------------------------------------
# What each envelope field must be, and so which of the five
# replacement values (str, list, dict, null, bool) damage it.
_REPLACEMENTS = {"str": "x", "list": [1], "dict": {"a": 1}, "null": None, "bool": True}
_ALLOWED = {
    "number": (), "count": (), "str": ("str",), "dict": ("dict",),
    "str|null": ("str", "null"), "number|null": ("null",), "int": (),
}
_FIELD_TYPES = {
    "ts": "number", "dur": "number", "depth": "int", "pid": "int",
    "name": "str", "id": "str", "status": "str", "trace": "str",
    "level": "str", "msg": "str", "parent": "str|null",
    "fields": "dict", "counters": "dict", "values": "dict", "histograms": "dict",
}
_HIST_TYPES = {"count": "count", "total": "number", "min": "number|null",
               "max": "number|null", "bins": "dict"}


def _targets(event: dict) -> list[tuple[tuple, str]]:
    """Every (path, type) in ``event`` a damage can hit."""
    out = [((key,), _FIELD_TYPES[key]) for key in event if key in _FIELD_TYPES]
    for key in ("counters", "values"):
        out += [((key, name), "number") for name in event.get(key, {})]
    for name, payload in event.get("histograms", {}).items():
        out.append((("histograms", name), "dict"))
        out += [(("histograms", name, k), t) for k, t in _HIST_TYPES.items() if k in payload]
        out += [(("histograms", name, "bins", b), "count") for b in payload.get("bins", {})]
    return out


@st.composite
def _damaged_field(draw, event: dict) -> dict:
    path, kind = draw(st.sampled_from(_targets(event)))
    bad = [v for k, v in _REPLACEMENTS.items() if k not in _ALLOWED[kind]]
    damaged = json.loads(json.dumps(event))
    node = damaged
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(bad))
    return damaged


_non_object = st.sampled_from(["[1, 2]", '"text"', "3", "null", "true", "[]"])
_bad_utf8 = st.sampled_from(
    [b"\xff\xfe", b'{"kind": "log", "msg": "\xc3"}', b"\x80abc", b'{"ts": 1.0, "\xfe": 1}']
)


@st.composite
def damaged_sink(draw):
    """``(sink bytes, valid events in file order, damaged line count)``."""
    events = draw(st.lists(_event, min_size=1, max_size=8))
    hit = draw(st.sets(st.integers(0, len(events) - 1), max_size=min(3, len(events))))
    lines = [
        json.dumps(draw(_damaged_field(e)) if i in hit else e).encode()
        for i, e in enumerate(events)
    ]
    extra = draw(st.lists(st.one_of(_non_object.map(str.encode), _bad_utf8), max_size=3))
    if not hit and not extra:
        extra = [draw(_bad_utf8)]
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    valid = [e for i, e in enumerate(events) if i not in hit]
    return b"".join(line + b"\n" for line in lines), valid, len(hit) + len(extra)


class TestTrustBoundaryFuzz:
    @settings(max_examples=150, deadline=None)
    @given(sink=damaged_sink())
    def test_damaged_lines_are_counted_and_consumers_return(self, campaign_dir, sink):
        data, valid, n_damaged = sink
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "campaign"
            shutil.copytree(campaign_dir, root)
            (root / "obs.jsonl").write_bytes(data)
            follower = open_sinks(str(root / "obs.jsonl"))
            events = follower.poll(final=True)
            assert events == valid
            assert follower.corrupt == n_damaged
            _, dossier_events, corrupt = read_campaign_sinks(ResultStore(root))
            assert (dossier_events, corrupt) == (valid, n_damaged)
            consume(events, root)


# Each of these crashed at least one of report/export/tail/watch/the
# dossier before the reader checked envelopes.
_SPAN = {"kind": "span", "ts": 1.7e9, "name": "campaign.job", "id": "1-1",
         "parent": None, "depth": 0, "dur": 0.5, "status": "ok", "fields": {}}
_COUNTERS = {"kind": "counters", "ts": 1.7e9, "pid": 1, "counters": {"campaign.ok": 1},
             "histograms": {"h": {"count": 1, "total": 1.0, "min": 1.0, "max": 1.0,
                                  "bins": {"73": 1}}}}
_METRICS = {"kind": "metrics", "ts": 1.7e9, "pid": 1, "name": "campaign.job",
            "fields": {}, "values": {"bit_accuracy": 1.0}}
_LOG = {"kind": "log", "ts": 1.7e9, "pid": 1, "level": "warning", "msg": "slow",
        "fields": {"warn_key": "slow"}}
PINNED = {
    "span_dur_str": json.dumps({**_SPAN, "dur": "x"}).encode(),
    "ts_str_in_tail": json.dumps({**_LOG, "ts": "zz"}).encode(),
    "invalid_utf8": b"\xff\xfe",
    "counter_value_str": json.dumps({**_COUNTERS, "counters": {"campaign.ok": "x"}}).encode(),
    "metric_value_str": json.dumps({**_METRICS, "values": {"bit_accuracy": "x"}}).encode(),
    "fields_list": json.dumps({**_LOG, "fields": [1]}).encode(),
    "counters_list": json.dumps({**_COUNTERS, "counters": [1]}).encode(),
    "histogram_count_str": json.dumps(
        {**_COUNTERS, "histograms": {"h": {**_COUNTERS["histograms"]["h"], "count": "x"}}}
    ).encode(),
}


class TestPinnedRepros:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_reader_skips_and_counts(self, campaign_dir, tmp_path, name):
        valid = [_SPAN, _COUNTERS, _METRICS, _LOG]
        root = tmp_path / "campaign"
        shutil.copytree(campaign_dir, root)
        sink = root / "obs.jsonl"
        sink.write_bytes(
            b"".join(json.dumps(e).encode() + b"\n" for e in valid[:2])
            + PINNED[name] + b"\n"
            + b"".join(json.dumps(e).encode() + b"\n" for e in valid[2:])
        )
        follower = open_sinks(str(sink))
        events = follower.poll(final=True)
        assert events == valid
        assert follower.corrupt == 1
        consume(events, root)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_cli_exits_zero_and_reports_the_count(self, campaign_dir, tmp_path, capsys, name):
        root = tmp_path / "campaign"
        shutil.copytree(campaign_dir, root)
        sink = root / "obs.jsonl"
        sink.write_bytes(json.dumps(_SPAN).encode() + b"\n" + PINNED[name] + b"\n")
        for argv in (
            ["obs", "report", str(sink)],
            ["obs", "report", "--trace", str(sink)],
            ["obs", "export", str(sink)],
            ["obs", "export", str(sink), "--format", "chrome-trace"],
            ["obs", "tail", str(sink)],
            ["obs", "watch", str(sink), "--once", "--no-clear"],
            ["report", str(root)],
        ):
            assert cli.main(argv) == 0, argv
            captured = capsys.readouterr()
            assert "skipped 1 corrupt obs sink line" in captured.err, argv
            assert captured.out
