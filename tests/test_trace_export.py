"""Byte pins of ``trace export`` for every trace species.

Each test captures one trace, fixes the sidecar's ``created_at`` (the
only wall-clock field in the export), runs ``python -m repro trace
export`` in-process and pins the sha256 of what it prints.  The JSON
is built from the columnar reader's output, so a decode, capture or
rendering change that moves one byte fails here.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.traces import TraceStore

PINS = {
    "survey-zlib-n150-s5":
        "fc1910367452b6cb45e37c388931390dc58b3aea80ac2d250748170f8a866d69",
    "fingerprint-lipsum-t2-s5":
        "41815b9986cffe24b305aa49266ba342b898b26a002b7935774dc67377eaf342",
    "breach-http-size-none-s3":
        "8ce5ed291fe2e8b203ea2fc94955062a497198ac9c77d27dde9fcbc78c07049f",
}


def _export_sha256(store_dir, trace_id, capsys) -> str:
    store = TraceStore(store_dir)
    sidecar = store.entry_path(trace_id)
    entry = json.loads(sidecar.read_text())
    entry["created_at"] = 0.0
    sidecar.write_text(json.dumps(entry))
    capsys.readouterr()
    assert main(["trace", "export", "--store", str(store_dir), "--id", trace_id]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "export.trstore"


class TestTraceExportPins:
    def test_memory_trace(self, store_dir, capsys):
        argv = ["trace", "capture", "--store", str(store_dir),
                "--size", "150", "--seed", "5", "--targets", "zlib"]
        assert main(argv) == 0
        trace_id = "survey-zlib-n150-s5"
        assert _export_sha256(store_dir, trace_id, capsys) == PINS[trace_id]

    def test_fingerprint_trace(self, store_dir, capsys):
        argv = ["trace", "capture", "--store", str(store_dir),
                "--species", "fingerprint", "--corpus", "lipsum",
                "--traces", "2", "--seed", "5"]
        assert main(argv) == 0
        trace_id = "fingerprint-lipsum-t2-s5"
        assert _export_sha256(store_dir, trace_id, capsys) == PINS[trace_id]

    def test_oracle_trace(self, store_dir, capsys):
        from repro.campaign.experiments import get_experiment

        params = {"victim": "http", "observable": "size", "secret_len": 4,
                  "store": str(store_dir)}
        assert get_experiment("breach_recovery")(params, 3)["correct"]
        trace_id = "breach-http-size-none-s3"
        assert _export_sha256(store_dir, trace_id, capsys) == PINS[trace_id]
