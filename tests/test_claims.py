"""The paper's claims, gated.

``repro.diag.claims`` runs every experiment of DESIGN.md's table once
per session (the ``claims`` fixture of ``conftest.py``); its metrics
must pass ``repro diag compare`` against the committed
``benchmarks/claims_baseline.json`` with every ``.holds`` row at 1.
EXPERIMENTS.md is written by hand but checked here: every measured
cell names its ``claim.*`` row and shows that row's committed value.
A falsified claim, or an edited cell, fails.
"""

import ast
import re
from pathlib import Path

import pytest

from repro import gate
from repro.cli import main
from repro.diag import claims as claims_module
from repro.diag import metric_direction
from repro.diag.claims import (
    ABS_EPSILON,
    CLAIMS,
    CLAIMS_PARAMS,
    DEFAULT_TOLERANCE,
    HOLDS,
    judge,
)

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "claims_baseline.json"
EXPERIMENTS = REPO / "EXPERIMENTS.md"

DESIGN_IDS = (
    "FIG2", "FIG3", "FIG4", "SURVEY", "SEC5E", "FIG7", "FIG8", "AES",
    "MEMCPY", "ABL-CAT", "ABL-FRAME", "ABL-STEP", "MITIG", "COMP", "REPLAY",
    "LEAK", "CHANNEL", "SYNTH", "ORACLE", "DIGEST",
)

# A measured cell: a number, an optional unit, then its row.
CELL = re.compile(
    r"^(?P<num>-?\d[\d,]*(?:\.(?P<dec>\d+))?)(?P<unit> %| s| ×)? "
    r"`(?P<row>claim\.[^`]+)`$"
)


@pytest.fixture(scope="session")
def baseline():
    return gate.load(str(BASELINE), "claims baseline")


def check_experiments(text: str, metrics: dict) -> list:
    """Every problem with EXPERIMENTS.md's measured cells: a cell that
    names no ``claim.*`` row, names an unknown row, or shows a value
    other than the row's ``metrics`` value at the cell's precision.

    In each table the first column and any column headed ``paper…`` or
    ``expected`` are labels; every other cell is measured."""
    problems = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("|"):
            i += 1
            continue
        table = []
        while i < len(lines) and lines[i].startswith("|"):
            table.append([c.strip() for c in lines[i].strip().strip("|").split("|")])
            i += 1
        header, rows = table[0], table[2:]
        measured = [
            k for k, name in enumerate(header)
            if k > 0 and not name.lower().startswith(("paper", "expected"))
        ]
        for row in rows:
            for k in measured:
                cell = row[k]
                match = CELL.match(cell)
                if match is None:
                    problems.append(f"cell {cell!r} names no claim row")
                    continue
                name = match["row"]
                if name not in metrics:
                    problems.append(f"cell {cell!r}: no row {name}")
                    continue
                scale = 100 if match["unit"] == " %" else 1
                digits = len(match["dec"] or "")
                want = f"{metrics[name] * scale:,.{digits}f}"
                if match["num"] != want:
                    problems.append(
                        f"cell {cell!r}: {name} is {want} in the baseline"
                    )
    return problems


class TestClaimsGate:
    def test_every_claim_holds_and_matches_the_baseline(self, claims, baseline):
        result = gate.compare(
            claims, baseline, DEFAULT_TOLERANCE, abs_epsilon=ABS_EPSILON,
            title="claims",
        )
        assert result.ok, result.summary()
        holds = [k for k in claims if k.endswith(HOLDS)]
        assert holds and all(claims[k] == 1 for k in holds)

    def test_baseline_has_one_claim_per_design_experiment(self, baseline):
        assert tuple(CLAIMS) == DESIGN_IDS
        assert baseline["params"] == CLAIMS_PARAMS
        metrics, directions = baseline["metrics"], baseline["directions"]
        assert {name.split(".")[1] for name in metrics} == set(DESIGN_IDS)
        holds = [k for k in metrics if k.endswith(HOLDS)]
        assert len(holds) == 72
        assert all(metrics[k] == 1 for k in holds)
        assert all(directions[k] == "higher" for k in holds)
        # No row is a clock reading: speed is perfbench's to measure.
        assert not [k for k in metrics if k.endswith(("_s", "speedup", "elapsed"))]

    def test_the_claims_module_reads_no_clock(self):
        tree = ast.parse(Path(claims_module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "time" not in imported

    @pytest.mark.parametrize(
        "row, value, verdict",
        [
            ("claim.SEC5E.bit_accuracy", 0.5, "claim.SEC5E.bits_over_99pct.holds"),
            # A replay that re-runs the victim (21 compressions, as many
            # as the live experiment) no longer pays for its store.
            ("claim.REPLAY.replay_victim_runs", 21,
             "claim.REPLAY.store_pays_for_itself.holds"),
        ],
        ids=["SEC5E", "REPLAY"],
    )
    def test_falsified_claim_fails_compare(
        self, claims, tmp_path, capsys, row, value, verdict
    ):
        falsified = judge({**claims, row: value})
        assert falsified[verdict] == 0
        path = tmp_path / "falsified.json"
        gate.save(
            str(path), gate.payload(CLAIMS_PARAMS, falsified, metric_direction)
        )
        code = main(["diag", "compare", str(path), "--baseline", str(BASELINE)])
        out = capsys.readouterr().out
        assert code == 1
        regressed = [line.split()[0] for line in out.splitlines() if "REGRESSED" in line]
        assert verdict in regressed

    def test_a_changed_digest_fails_compare_on_its_row(
        self, claims, tmp_path, capsys
    ):
        row = "claim.DIGEST.lzw_recovery.metrics_digest"
        assert metric_direction(row) == "equal"
        changed = judge({**claims, row: "0" * 64})
        path = tmp_path / "changed.json"
        gate.save(
            str(path), gate.payload(CLAIMS_PARAMS, changed, metric_direction)
        )
        code = main(["diag", "compare", str(path), "--baseline", str(BASELINE)])
        out = capsys.readouterr().out
        assert code == 1
        status = {
            line.split()[0]: line.split()[-1]
            for line in out.splitlines() if line.startswith("claim.")
        }
        assert [k for k, v in status.items() if v in ("CHANGED", "REGRESSED")] == [row]
        assert status[row] == "CHANGED"

    def test_a_missing_value_fails_its_verdicts(self, claims):
        partial = dict(claims)
        del partial["claim.FIG2.byte_i_lo_bit"]
        verdicts = judge(partial)
        assert verdicts["claim.FIG2.byte_i_bits_11_15.holds"] == 0
        assert verdicts["claim.FIG2.byte_i1_bits_6_13.holds"] == 1

    def test_compare_without_a_file_recollects_the_claims(
        self, claims, monkeypatch, capsys
    ):
        import repro.diag.claims as claims_mod

        monkeypatch.setattr(
            claims_mod, "collect_claim_metrics", lambda: claims
        )
        code = main(["diag", "compare", "--baseline", str(BASELINE)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "claim.SEC5E.bits_over_99pct.holds" in out

    def test_a_baseline_of_another_suite_is_refused(self, claims, tmp_path, capsys):
        path = tmp_path / "other.json"
        gate.save(str(path), gate.payload({"size": 120}, claims, metric_direction))
        code = main(["diag", "compare", "--baseline", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not a claims baseline" in err
        assert err.count("\n") == 1


class TestExperimentsDoc:
    def test_every_measured_cell_shows_its_committed_value(self, baseline):
        text = EXPERIMENTS.read_text(encoding="utf-8")
        assert check_experiments(text, baseline["metrics"]) == []
        assert text.count("`claim.") > 80

    def test_an_edited_cell_fails(self, baseline):
        text = EXPERIMENTS.read_text(encoding="utf-8")
        cell = "99.92 % `claim.SURVEY.zlib_lowercase_accuracy`"
        assert cell in text
        edited = text.replace(cell, cell.replace("99.92", "99.93"))
        problems = check_experiments(edited, baseline["metrics"])
        assert len(problems) == 1
        assert "claim.SURVEY.zlib_lowercase_accuracy" in problems[0]

    def test_a_cell_without_its_row_fails(self, baseline):
        text = EXPERIMENTS.read_text(encoding="utf-8")
        edited = text.replace(" `claim.FIG8.file1_accuracy`", "", 1)
        assert check_experiments(edited, baseline["metrics"]) == [
            "cell '88 %' names no claim row"
        ]

    def test_one_section_per_claim_and_a_gaps_list(self):
        text = EXPERIMENTS.read_text(encoding="utf-8")
        for claim_id in DESIGN_IDS:
            assert f"\n## {claim_id} — " in text, claim_id
            assert f"\nClaim: `{claim_id}`" in text, claim_id
        assert "\n## Gaps\n" in text
