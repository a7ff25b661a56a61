"""Tests for the command-line interface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _run(argv):
    """``main``'s exit code, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _parser_nodes(parser, prefix=()):
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parser_nodes(child, prefix + (name,))


def _extraction_lines(size, mitigated):
    """What ``sgx-attack --random SIZE`` prints, elapsed time left out,
    built from the campaign experiment's metrics for the same secret."""
    from repro.core.zipchannel import run_extraction_experiment

    m = run_extraction_experiment(size=size, seed=0, mitigated=mitigated)
    return (
        f"SGX ZipChannel attack: bit accuracy {m['bit_accuracy'] * 100:.2f}%, "
        f"byte accuracy {m['byte_accuracy'] * 100:.2f}%, "
        f"{m['faults']} faults, {m['frame_remaps']} frame remaps\n"
        f"empty observations: {m['observations_empty']}, "
        f"ambiguous: {m['observations_ambiguous']}, "
        f"victim accesses: {m['victim_accesses']}\n"
    )


def _without_elapsed(out):
    return re.sub(r"\d+\.\d+s, ", "", out)


def _tiny_campaign(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"name": "tiny", "experiment": "lzw_recovery", "grid": {"size": [30]}}'
    )
    return str(spec), str(tmp_path / "out")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_taintchannel_defaults(self):
        args = build_parser().parse_args(["taintchannel", "zlib"])
        assert args.target == "zlib"
        assert args.random == 500
        assert not args.carry_aware

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["taintchannel", "gzip2"])

    @pytest.mark.parametrize(
        "node", list(_parser_nodes(build_parser())), ids=" ".join
    )
    def test_help_exits_zero_on_every_node(self, node, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*node, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")

    @pytest.mark.parametrize("command", ["survey", "apply", "report"])
    def test_bad_secret_span_is_a_usage_error(self, command, capsys):
        argv = ["mitigate", command, "lzw", "--secret-span", "5"]
        assert _run(argv) == 2
        assert "bad span '5'; expected LO:HI" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sgx-attack", "--random", "0"],
            ["sgx-attack", "--random", "-5"],
            ["sgx-attack", "--file", os.devnull],
            ["taintchannel", "zlib", "--lowercase", "0"],
            ["survey", "--size", "0"],
            ["diag", "report", "--size", "0"],
            ["fingerprint", "--traces", "0"],
            ["fingerprint", "--epochs", "0"],
            ["diag", "channel", "--samples", "0"],
            ["diag", "channel", "--step-n", "0"],
            ["mitigate", "survey", "lzw", "--random", "0"],
            ["mitigate", "report", "lzw", "--size", "0"],
        ],
        ids=" ".join,
    )
    def test_a_size_below_one_is_a_usage_error(self, argv, capsys):
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        # An input option's size is checked on the bytes it makes, so an
        # empty --file is refused the same way.
        input_option = argv[-2] in ("--random", "--lowercase", "--file")
        assert ("non-empty input" if input_option else "expected a positive integer") in err

    def test_sgx_flags(self):
        args = build_parser().parse_args(
            ["sgx-attack", "--no-cat", "--no-frame-selection", "--noise", "9"]
        )
        assert args.no_cat and args.no_frame_selection and args.noise == 9


class TestCommands:
    def test_taintchannel_zlib(self, capsys):
        assert main(["taintchannel", "zlib", "--lowercase", "60", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "data-flow gadgets" in out
        assert "head[ins_h]" in out

    def test_taintchannel_gadget_filter(self, capsys):
        main(["taintchannel", "lzw", "--text", "40", "--gadget", "htab"])
        out = capsys.readouterr().out
        assert "htab[hp]" in out
        assert "Taint-dependent memory access" in out

    def test_taintchannel_aes(self, capsys):
        main(["taintchannel", "aes", "--random", "32", "--top", "1"])
        out = capsys.readouterr().out
        assert "Te" in out

    def test_taintchannel_from_file(self, tmp_path, capsys):
        path = tmp_path / "secret.txt"
        path.write_bytes(b"file-based input works too")
        main(["taintchannel", "zlib", "--file", str(path), "--no-slice"])
        out = capsys.readouterr().out
        assert "input bytes: 26" in out

    def test_sgx_attack(self, capsys):
        assert main(["sgx-attack", "--random", "80"]) == 0
        out = capsys.readouterr().out
        assert "bit accuracy 100.00%" in out
        assert _without_elapsed(out) == _extraction_lines(80, mitigated=False)

    def test_sgx_attack_mitigated(self, capsys):
        assert main(["sgx-attack", "--random", "40", "--mitigated"]) == 0
        out = capsys.readouterr().out
        assert "bit accuracy" in out
        assert "ambiguous: 40" in out  # every observation floods
        assert _without_elapsed(out) == _extraction_lines(40, mitigated=True)

    def test_survey(self, capsys):
        import re

        from repro.campaign.experiments import get_experiment

        assert main(["survey", "--size", "150"]) == 0
        out = capsys.readouterr().out
        assert "zlib" in out and "ncompress" in out and "bzip2" in out
        assert "100.00% of bits recovered" in out
        # The printed numbers are the survey_recovery experiment's.
        live = get_experiment("survey_recovery")({"size": 150}, 0)
        zlib = re.search(r"zlib \(lowercase\): ([\d.]+)% of bytes", out)
        lzw = re.search(r"exact input (found|NOT found) among (\d+) candidates", out)
        bzip2 = re.search(r"bzip2: ([\d.]+)% of bits", out)
        assert zlib.group(1) == f"{live['zlib_accuracy'] * 100:.2f}"
        assert (lzw.group(1) == "found") == live["lzw_exact_found"]
        assert int(lzw.group(2)) == live["lzw_candidates"]
        assert bzip2.group(1) == f"{live['bzip2_bit_accuracy'] * 100:.2f}"

    def test_fingerprint_lipsum_quick(self, capsys):
        assert main(
            ["fingerprint", "--corpus", "lipsum", "--traces", "6", "--epochs", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        assert "test_00001.txt" in out
        # The printed accuracy is the campaign experiment's.
        from repro.core.zipchannel import run_fingerprint_experiment

        m = run_fingerprint_experiment(
            corpus="lipsum", traces=6, epochs=5, seed=0, hidden=96
        )
        assert f"test accuracy: {m['test_accuracy'] * 100:.1f}% " in out

    def test_campaign_run_does_not_announce_local_slots(self, tmp_path, capsys):
        """A one-shot run's forked workers are scheduler workers, but
        registering them is not progress: only ``cluster serve``
        announces the workers that connect to it."""
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "slots", "experiment": "lzw_recovery", "grid": {"size": [30, 40]}}'
        )
        assert main(["campaign", "run", str(spec), "--out", str(tmp_path / "out"),
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "finalized" in out
        assert not [line for line in out.splitlines() if "registered" in line]


class TestSharedIdioms:
    @pytest.mark.parametrize(
        "counts,code",
        [
            ({}, 0),
            ({"ok": 4}, 0),
            ({"ok": 4, "skipped": 2}, 0),
            ({"skipped": 3}, 0),
            ({"failed": 2}, 1),
            ({"timeout": 1, "crashed": 1, "skipped": 5}, 1),
            ({"ok": 3, "failed": 1}, 3),
            ({"ok": 1, "timeout": 1}, 3),
            ({"ok": 1, "crashed": 2, "skipped": 1}, 3),
        ],
    )
    def test_one_exit_code_rule(self, counts, code):
        from repro.cli import _exit_code

        assert _exit_code(counts) == code

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["campaign", "resume", "{missing}"], "no campaign manifest in"),
            (["report", "{missing}", "--out", "{missing}/dossier.md"],
             "no campaign manifest in"),
            (["campaign", "status", "{missing}"], "no campaign manifest in"),
            (["report", "{missing}"], "no campaign manifest in"),
            (["trace", "list", "--store", "{missing}"], "no trace store at"),
            (["trace", "verify", "--store", "{missing}"], "no trace store at"),
            (["diag", "report", "--store", "{missing}"], "no trace store at"),
        ],
    )
    def test_missing_directory_exits_2(self, argv, message, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main([a.format(missing=missing) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message} {missing}\n"

    @pytest.mark.parametrize(
        "command",
        [["campaign", "run"], ["cluster", "run"], ["cluster", "submit"]],
        ids=["campaign-run", "cluster-run", "cluster-submit"],
    )
    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]", "a campaign spec must be a JSON object"),
            ('{"name":"a","experiment":"lzw_recovery","fixed":[1]}',
             "spec 'fixed' must be an object"),
            ('{"name":"a","experiment":"lzw_recovery","trials":"2"}',
             "spec 'trials' must be an integer, got '2'"),
            ("{bad", "Expecting property name"),
        ],
        ids=["list", "fixed-list", "string-trials", "not-json"],
    )
    def test_malformed_spec_exits_2(self, command, text, message, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert main([*command, str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_interrupt_exits_130_with_the_resume_hint(
        self, command, tmp_path, monkeypatch, capsys
    ):
        import repro.cluster

        spec, out = _tiny_campaign(tmp_path)
        if command == "resume":
            assert main(["campaign", "run", spec, "--out", out, "--quiet"]) == 0

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.cluster, "run_cluster", interrupted)
        argv = (
            ["campaign", "run", spec, "--out", out, "--quiet"]
            if command == "run"
            else ["campaign", "resume", out, "--quiet"]
        )
        assert main(argv) == 130
        assert (
            f"continue with `python -m repro campaign resume {out}`"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command, deadline",
        [("campaign run", None), ("campaign resume", None),
         ("cluster run", 600.0), ("cluster run --deadline 7", 7.0)],
    )
    def test_only_cluster_run_has_a_deadline(
        self, command, deadline, tmp_path, monkeypatch
    ):
        """A campaign may run for hours: ``campaign run|resume`` wait
        for it; only ``cluster run --deadline`` bounds the wait."""
        import inspect

        import repro.cluster

        spec, out = _tiny_campaign(tmp_path)
        if command == "campaign resume":
            assert main(["campaign", "run", spec, "--out", out, "--quiet"]) == 0
        default = inspect.signature(repro.cluster.run_cluster).parameters[
            "deadline_seconds"
        ].default
        seen = {"deadline_seconds": default}

        def fake(spec, store_root, **kwargs):
            seen.update(kwargs)
            return {"counts": {"ok": 1}, "elapsed_seconds": 0.0}

        monkeypatch.setattr(repro.cluster, "run_cluster", fake)
        words = command.split()
        argv = (
            [*words, out] if command == "campaign resume"
            else [*words[:2], spec, "--out", out, *words[2:]]
        )
        assert main([*argv, "--quiet"]) == 0
        assert seen["deadline_seconds"] == deadline


def test_cli_startup_imports_no_command_package():
    """Each ``python -m repro`` process (four per cluster campaign)
    pays only for the parser; commands import their packages."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, repro.cli; "
        "print(' '.join(m for m in sys.modules "
        "if m.startswith('repro.') or m == 'numpy'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    heavy = (
        "diag", "classify", "campaign", "cluster", "mitigations",
        "core", "taint", "exec",
    )
    assert "repro.cli" in loaded
    assert not [m for m in loaded if m.split(".")[1] in heavy]


def test_worker_job_imports_no_report_or_decoder_it_does_not_use():
    """A cluster worker process loads what its jobs need: running one
    ``lzw_recovery`` job pulls in neither the campaign report and
    dossier renderers, nor the obs sink readers and renderers, nor
    another target's decoder, nor the bzip2 pipeline and numpy."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, repro.cluster.worker\n"
        "from repro.campaign.executor import run_attempt\n"
        "out = run_attempt({'experiment': 'lzw_recovery', "
        "'params': {'size': 60}, 'seed': 3, 'attempt': 1})\n"
        "assert out.status == 'ok' and out.metrics['exact_found'], out\n"
        "print(' '.join(m for m in sys.modules "
        "if m.startswith('repro.') or m == 'numpy'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "repro.recovery.lzw_recover" in loaded
    unused = {
        "repro.campaign.dossier",
        "repro.campaign.report",
        "repro.obs.export",
        "repro.obs.report",
        "repro.obs.watch",
        "repro.recovery.zlib_recover",
        "repro.compression.bzip2.pipeline",
        "numpy",
    }
    assert not unused & set(loaded)
