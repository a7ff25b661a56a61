"""Every documented ``python -m repro ...`` command line parses.

Scans the fenced code blocks of ``README.md``, ``docs/*.md`` and
``EXPERIMENTS.md``, the :mod:`repro.cli` docstring and the CI workflow,
joins backslash continuations, strips shell comments, and runs
:func:`repro.cli.build_parser` on the arguments, so a renamed or removed
option cannot linger in an example.
"""

import contextlib
import io
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
INVOCATION = re.compile(r"python3? -m repro\b(.*)")
# Shell syntax that ends the command's own arguments.
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "2>&1", "&"}


def _logical_lines(lines):
    """Join backslash continuations."""
    pending = ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line
        pending = ""
    if pending:
        yield pending


def _fenced_lines(text: str):
    inside = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            yield line


def _documented_invocations():
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    found = []
    for path in sources:
        lines = _fenced_lines(path.read_text(encoding="utf-8"))
        for line in _logical_lines(lines):
            found.append((path.name, line))
    for line in _logical_lines(repro.cli.__doc__.splitlines()):
        found.append(("repro.cli", line))
    lines = _fenced_lines((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"))
    for line in _logical_lines(lines):
        found.append(("EXPERIMENTS.md", line))
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    for line in _logical_lines(workflow.read_text(encoding="utf-8").splitlines()):
        found.append(("ci.yml", line))
    # A command repeated in one source numbers its repeats only, so
    # adding a repeat renames no existing case.
    invocations = []
    seen = Counter()
    for source, line in found:
        match = INVOCATION.search(line)
        if match:
            shown = match.group(0).split("#")[0].strip()
            case_id = f"{source}:{shown}"
            seen[case_id] += 1
            if seen[case_id] > 1:
                case_id += f" (repeat {seen[case_id]})"
            invocations.append(pytest.param(match.group(1), id=case_id))
    return invocations


def _arguments(tail: str) -> list:
    args = []
    for token in shlex.split(tail, comments=True):
        if token in SHELL_OPERATORS:
            break
        args.append(token)
    return args


def test_scan_finds_the_documented_commands():
    assert len(_documented_invocations()) > 50


@pytest.mark.parametrize("tail", _documented_invocations())
def test_documented_command_parses(tail):
    parser = build_parser()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            parser.parse_args(_arguments(tail))
    except SystemExit as exc:
        assert exc.code == 0, stderr.getvalue()
