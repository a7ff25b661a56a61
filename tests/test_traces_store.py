"""Tests for the on-disk trace store: indexing, integrity, lifecycle."""

import numpy as np
import pytest

from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint
from repro.traces import (
    FingerprintCapture,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    TraceFormatError,
    TraceStore,
    file_sha256,
)


def _records(n=20, base=1 << 44):
    return [
        MemoryAccess(seq=i + 1, kind="read", array="head", index=i,
                     elem_size=2, address=base + 2 * i,
                     addr_taint=BitTaint.byte(i), site="deflate_slow/head[ins_h]")
        for i in range(n)
    ]


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "corpus.trstore")


class TestLifecycle:
    def test_put_get_read(self, store):
        entry = store.put("t1", SPECIES_MEMORY, _records(),
                          meta={"target": "zlib", "size": 20})
        assert entry.n_records == 20
        assert store.get("t1").sha256 == entry.sha256
        assert store.get("t1").meta["target"] == "zlib"
        back = store.read_columns("t1")
        assert back.address.tolist() == [r.address for r in _records()]

    def test_get_missing_raises_keyerror(self, store):
        store.open()
        with pytest.raises(KeyError, match="nope"):
            store.get("nope")

    def test_overwrite_guard(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        with pytest.raises(FileExistsError, match="overwrite"):
            store.put("t1", SPECIES_MEMORY, _records())
        store.put("t1", SPECIES_MEMORY, _records(5), overwrite=True)
        assert store.get("t1").n_records == 5

    def test_delete(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        store.delete("t1")
        assert store.trace_ids() == []
        with pytest.raises(KeyError):
            store.delete("t1")

    def test_invalid_trace_id_rejected(self, store):
        with pytest.raises(ValueError, match="invalid trace id"):
            store.put("../escape", SPECIES_MEMORY, _records())
        with pytest.raises(ValueError, match="invalid trace id"):
            store.put("", SPECIES_MEMORY, _records())

    def test_open_missing_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceStore(tmp_path / "absent.trstore").open(create=False)

    def test_aborted_writer_leaves_no_entry(self, store):
        with pytest.raises(RuntimeError, match="boom"):
            with store.create("t1", SPECIES_MEMORY) as writer:
                writer.append(_records(1)[0])
                raise RuntimeError("boom")
        assert store.trace_ids() == []
        assert not store.trace_path("t1").exists()

    def test_parallel_style_independent_writes(self, store):
        """Two captures of different ids never touch a shared file, so
        interleaved writers commit independently."""
        w1 = store.create("a", SPECIES_MEMORY)
        w2 = store.create("b", SPECIES_MEMORY)
        w1.extend(_records(3))
        w2.extend(_records(4))
        w2.close()
        w1.close()
        assert store.trace_ids() == ["a", "b"]
        assert store.get("a").n_records == 3
        assert store.get("b").n_records == 4


class TestListing:
    def test_list_filters(self, store):
        store.put("m1", SPECIES_MEMORY, _records(), meta={"target": "zlib"})
        store.put("m2", SPECIES_MEMORY, _records(), meta={"target": "lzw"})
        store.put(
            "f1",
            SPECIES_FINGERPRINT,
            [FingerprintCapture(0, 7, np.zeros((2, 10), dtype=np.int8))],
            meta={"corpus": "lipsum"},
        )
        assert {e.trace_id for e in store.list()} == {"m1", "m2", "f1"}
        assert [e.trace_id for e in store.list(species=SPECIES_MEMORY)] == ["m1", "m2"]
        assert [e.trace_id for e in store.list(target="lzw")] == ["m2"]
        assert store.list(target="bzip2") == []


class TestIntegrity:
    def test_verify_clean_store(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        reports = store.verify()
        assert [(r.trace_id, r.ok) for r in reports] == [("t1", True)]

    def test_verify_detects_flipped_byte(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        path = store.trace_path("t1")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 1
        path.write_bytes(bytes(blob))
        (report,) = store.verify("t1")
        assert not report.ok and "sha256 mismatch" in report.problem

    def test_verify_detects_missing_file(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        store.trace_path("t1").unlink()
        (report,) = store.verify("t1")
        assert not report.ok and "missing" in report.problem

    def test_verify_flags_orphan_trace(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        store.entry_path("t1").unlink()  # simulate a crashed capture
        reports = store.verify()
        assert any(not r.ok and "orphan" in r.problem for r in reports)

    def test_read_detects_corruption_inline(self, store):
        """Corruption surfaces on *read*, not only on verify."""
        store.put("t1", SPECIES_MEMORY, _records(200))
        path = store.trace_path("t1")
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError):
            store.read_columns("t1")

    def test_species_mismatch_between_index_and_file(self, store):
        store.put("t1", SPECIES_MEMORY, _records())
        entry_path = store.entry_path("t1")
        entry_path.write_text(
            entry_path.read_text().replace('"memory"', '"fingerprint"')
        )
        with pytest.raises(TraceFormatError, match="species"):
            store.read_columns("t1")

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "x.bin"
        payload = bytes(range(256)) * 100
        path.write_bytes(payload)
        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
