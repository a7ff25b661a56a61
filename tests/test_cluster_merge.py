"""Record algebra under sharding: dedupe, merge, digest.

The cluster's determinism rests on three pure-function properties,
pinned here with Hypothesis: :func:`dedupe_records` is
order-independent (any permutation of the same records picks the same
winners), shard-merge equals the single-store view no matter how the
records were scattered across shards, and :func:`metrics_digest`
covers exactly the reproducible fields (never wall-clock ones).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.store import (
    JobRecord,
    ResultStore,
    SpecMismatchError,
    dedupe_records,
    metrics_digest,
)


def record_strategy():
    return st.builds(
        JobRecord,
        job_id=st.sampled_from(["j1", "j2", "j3", "j4"]),
        experiment=st.just("exp"),
        params=st.fixed_dictionaries({"x": st.integers(0, 3)}),
        trial=st.integers(0, 2),
        seed=st.integers(0, 999),
        status=st.sampled_from(["ok", "failed", "timeout", "crashed"]),
        attempts=st.integers(1, 3),
        duration_seconds=st.floats(0.0, 10.0, allow_nan=False),
        metrics=st.one_of(
            st.none(), st.fixed_dictionaries({"v": st.integers(0, 9)})
        ),
        error=st.one_of(st.none(), st.just("boom")),
        finished_at=st.floats(0.0, 100.0, allow_nan=False),
        timeout_enforced=st.one_of(st.none(), st.booleans()),
    )


def as_dicts(records: dict) -> dict:
    return {job_id: r.to_dict() for job_id, r in records.items()}


class TestDedupeProperties:
    @given(records=st.lists(record_strategy(), max_size=12), rand=st.randoms())
    def test_order_independent(self, records, rand):
        shuffled = list(records)
        rand.shuffle(shuffled)
        assert as_dicts(dedupe_records(shuffled)) == as_dicts(
            dedupe_records(records)
        )

    @given(records=st.lists(record_strategy(), max_size=10))
    def test_idempotent_under_duplication(self, records):
        assert as_dicts(dedupe_records(records + records)) == as_dicts(
            dedupe_records(records)
        )

    @given(records=st.lists(record_strategy(), min_size=1, max_size=10))
    def test_ok_always_beats_failures(self, records):
        winners = dedupe_records(records)
        for job_id, winner in winners.items():
            has_ok = any(
                r.status == "ok" for r in records if r.job_id == job_id
            )
            assert winner.ok == has_ok

    @settings(max_examples=25)  # each example writes real files
    @given(
        records=st.lists(record_strategy(), max_size=8),
        shard_of=st.lists(st.integers(0, 2), min_size=8, max_size=8),
    )
    def test_shard_merge_equals_single_store(self, tmp_path_factory, records, shard_of):
        """Scatter the records across 3 worker shards arbitrarily;
        after merge the main store equals the single-store view: within
        one shard the last append per job id wins (the append-only
        log's contract), and dedupe arbitrates across shards."""
        root = tmp_path_factory.mktemp("merge")
        store = ResultStore(root)
        per_shard: dict[int, dict[str, JobRecord]] = {}
        for record, shard_index in zip(records, shard_of):
            shard = store.shard_store(f"w{shard_index}")
            shard.root.mkdir(parents=True, exist_ok=True)
            shard.append(record)
            per_shard.setdefault(shard_index, {})[record.job_id] = record
        expected = dedupe_records(
            record
            for survivors in per_shard.values()
            for record in survivors.values()
        )
        store.merge_shards()
        assert as_dicts(store.load_records()) == as_dicts(expected)
        # A second merge finds nothing new to write.
        assert store.merge_shards() == 0


def _sharded_store(root, n_jobs=12, shards=3):
    """A store whose records sit in worker shards only, some jobs in two
    shards (a failed attempt, then the ok retry elsewhere)."""
    store = ResultStore(root)
    for index in range(n_jobs):
        record = JobRecord(
            job_id=f"j{index:02d}", experiment="exp", params={"x": index},
            trial=0, seed=index, status="ok", attempts=1 + index % 2,
            duration_seconds=0.25 * index, metrics={"v": index * 3},
            error=None, finished_at=10.0 + index,
        )
        shard = store.shard_store(f"w{index % shards}")
        shard.root.mkdir(parents=True, exist_ok=True)
        if index % 4 == 0:
            stale = store.shard_store(f"w{(index + 1) % shards}")
            stale.root.mkdir(parents=True, exist_ok=True)
            stale.append(JobRecord(**{
                **record.__dict__, "status": "crashed", "metrics": None,
                "error": "worker died",
            }))
        shard.append(record)
    return store


def _merge_record_by_record(store):
    """The merge as it was before one append: one append (and one
    fsync) per record, in sorted job-id order."""
    main = store.load_records()
    combined = list(main.values())
    for shard in store.shard_stores():
        combined.extend(shard.load_records().values())
    for job_id, record in sorted(dedupe_records(combined).items()):
        if main.get(job_id) is not record:
            store.append(record)


class TestOneAppendMerge:
    def test_one_fsync_and_the_bytes_of_the_record_by_record_merge(
        self, tmp_path, monkeypatch
    ):
        reference = _sharded_store(tmp_path / "reference")
        _merge_record_by_record(reference)
        store = _sharded_store(tmp_path / "merged")
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        assert store.merge_shards() == 12
        assert len(fsyncs) == 1
        assert store.results_path.read_bytes() == (
            reference.results_path.read_bytes()
        )

    @pytest.mark.parametrize("cut", ["mid-line", "line-end"])
    def test_merge_cut_short_then_resumed_ends_in_the_same_log(
        self, tmp_path, cut
    ):
        clean = _sharded_store(tmp_path / "clean")
        clean.merge_shards()
        merged = clean.results_path.read_bytes()
        lines = merged.splitlines(keepends=True)
        keep = sum(map(len, lines[:5]))
        if cut == "mid-line":
            keep += len(lines[5]) // 2

        # A crash mid-merge left a prefix of the one append on disk
        # (torn mid-record or not); resume merges again.
        store = _sharded_store(tmp_path / "cut")
        store.results_path.write_bytes(merged[:keep])
        store.merge_shards()
        assert as_dicts(store.load_records()) == as_dicts(clean.load_records())
        assert metrics_digest(store.load_records()) == metrics_digest(
            clean.load_records()
        )
        assert store.merge_shards() == 0


class TestDigest:
    def make(self, **overrides):
        base = dict(
            job_id="j1",
            experiment="exp",
            params={"x": 1},
            trial=0,
            seed=42,
            status="ok",
            attempts=1,
            duration_seconds=0.5,
            metrics={"v": 7},
            error=None,
            finished_at=123.0,
            timeout_enforced=None,
        )
        base.update(overrides)
        return JobRecord(**base)

    def test_wall_clock_fields_do_not_perturb_the_digest(self):
        """attempts / duration / finished_at / error / timeout_enforced
        vary per execution host; the digest must not see them."""
        a = self.make()
        b = self.make(
            attempts=3,
            duration_seconds=9.9,
            finished_at=999.0,
            timeout_enforced=True,
        )
        assert metrics_digest([a]) == metrics_digest([b])

    def test_reproducible_fields_do_perturb_the_digest(self):
        a = self.make()
        assert metrics_digest([a]) != metrics_digest(
            [self.make(metrics={"v": 8})]
        )
        assert metrics_digest([a]) != metrics_digest(
            [self.make(status="failed", metrics=None)]
        )
        assert metrics_digest([a]) != metrics_digest([self.make(seed=43)])

    def test_record_order_does_not_matter(self):
        a = self.make(job_id="a")
        b = self.make(job_id="b")
        assert metrics_digest([a, b]) == metrics_digest([b, a])
        assert metrics_digest({"a": a, "b": b}) == metrics_digest([b, a])

    @given(records=st.lists(record_strategy(), max_size=10), rand=st.randoms())
    def test_digest_is_permutation_invariant(self, records, rand):
        deduped = list(dedupe_records(records).values())
        shuffled = list(deduped)
        rand.shuffle(shuffled)
        assert metrics_digest(deduped) == metrics_digest(shuffled)


class TestSpecMismatch:
    def spec(self, xs):
        from repro.campaign import CampaignSpec

        return CampaignSpec(name="m", experiment="exp", grid={"x": xs})

    def test_resume_mismatch_names_both_hashes(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        original = self.spec([1, 2])
        store.open_campaign(original)
        offered = self.spec([1, 2, 3])
        try:
            store.open_campaign(offered, resume=True)
        except SpecMismatchError as exc:
            assert exc.stored_hash == original.spec_hash()
            assert exc.offered_hash == offered.spec_hash()
            assert original.spec_hash() in str(exc)
            assert offered.spec_hash() in str(exc)
            assert "fresh directory" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("mismatched resume was accepted")

    def test_load_spec_rejects_tampered_manifest(self, tmp_path):
        import json

        store = ResultStore(tmp_path / "c")
        store.open_campaign(self.spec([1]))
        manifest = store.load_manifest()
        manifest["spec"]["grid"]["x"] = [9]  # hand-edited spec
        store.manifest_path.write_text(json.dumps(manifest))
        try:
            store.load_spec()
        except SpecMismatchError as exc:
            assert manifest["spec_hash"] in str(exc)
        else:  # pragma: no cover
            raise AssertionError("tampered manifest loaded silently")

    def test_matching_spec_resumes_fine(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.open_campaign(self.spec([1]))
        store.open_campaign(self.spec([1]), resume=True)  # no raise
        assert store.load_spec().spec_hash() == self.spec([1]).spec_hash()
