"""The shared baseline gate's loader: malformed gate files are typed
errors (one ``error:`` line, exit 2) through the gate CLI, whichever
side of the comparison they are on."""

import json

import pytest

from repro import cli, gate

VALID = gate.payload({}, {"a.bit_accuracy": 0.9}, lambda name: "higher")

MALFORMED = {
    "not_json": "{not json",
    "json_list": "[1, 2, 3]",
    "wrong_schema": json.dumps(dict(VALID, schema="repro-perf/1")),
    "string_in_higher_row": json.dumps(
        dict(VALID, metrics={"a.bit_accuracy": "high"})
    ),
}


@pytest.mark.parametrize("command", ["diag"])
@pytest.mark.parametrize("role", ["baseline", "current"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_gate_file_exits_two(tmp_path, capsys, command, role, case):
    good = tmp_path / "good.json"
    gate.save(str(good), VALID)
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED[case])
    baseline, current = (bad, good) if role == "baseline" else (good, bad)
    rc = cli.main(
        [command, "compare", str(current), "--baseline", str(baseline)]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(bad) in err



def test_summary_columns_align_past_a_long_metric_name():
    long_name = "claim.DIGEST.access_many_probe.metrics_digest"
    assert len(long_name) > 38
    metrics = {"a.bit_accuracy": 0.9, long_name: "0123456789abcdef"}
    directions = {"a.bit_accuracy": "higher", long_name: "equal"}
    baseline = gate.payload({}, metrics, directions.__getitem__)
    lines = gate.compare(metrics, baseline, 0.05).summary().splitlines()
    header, rows = lines[1], lines[2:-1]
    dir_at = header.index(" dir ") + 1
    base_end = header.index("baseline") + len("baseline")
    cur_end = header.index("current") + len("current")
    cells = {"a.bit_accuracy": ("higher", "0.9"),
             long_name: ("equal", "0123456789ab")}
    assert len(rows) == 2
    for row in rows:
        direction, cell = cells[row.split()[0]]
        assert row[dir_at:dir_at + 7].rstrip() == direction
        assert row[base_end - 12:base_end].lstrip() == cell
        assert row[cur_end - 12:cur_end].lstrip() == cell
