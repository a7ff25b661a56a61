"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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

    def test_sgx_attack_mitigated(self, capsys):
        assert main(["sgx-attack", "--random", "40", "--mitigated"]) == 0
        out = capsys.readouterr().out
        assert "bit accuracy" in out
        assert "ambiguous: 40" in out  # every observation floods

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
