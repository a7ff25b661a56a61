"""Campaign spec expansion and deterministic seed derivation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec, FaultInjection, derive_seed


def make_spec(**overrides):
    base = dict(
        name="t",
        experiment="e",
        grid={"a": [1, 2], "b": ["x", "y", "z"]},
        trials=2,
        base_seed=5,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestExpansion:
    def test_grid_times_trials(self):
        spec = make_spec()
        jobs = spec.jobs()
        assert len(jobs) == 2 * 3 * 2 == spec.n_jobs()

    def test_every_cell_and_trial_present(self):
        jobs = make_spec().jobs()
        coords = {(j.params_dict()["a"], j.params_dict()["b"], j.trial) for j in jobs}
        assert len(coords) == 12

    def test_fixed_params_merged_into_every_cell(self):
        spec = make_spec(fixed={"c": 9})
        assert all(j.params_dict()["c"] == 9 for j in spec.jobs())

    def test_job_ids_unique(self):
        jobs = make_spec().jobs()
        assert len({j.job_id for j in jobs}) == len(jobs)

    def test_swept_and_fixed_overlap_rejected(self):
        with pytest.raises(ValueError, match="both swept and fixed"):
            make_spec(fixed={"a": 1})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_spec(grid={"a": []})


class TestSeedDerivation:
    def test_same_spec_same_seeds(self):
        assert make_spec().jobs() == make_spec().jobs()

    def test_seed_depends_on_every_coordinate(self):
        base = derive_seed(5, "e", {"a": 1}, 0)
        assert base != derive_seed(6, "e", {"a": 1}, 0)  # base_seed
        assert base != derive_seed(5, "f", {"a": 1}, 0)  # experiment
        assert base != derive_seed(5, "e", {"a": 2}, 0)  # params
        assert base != derive_seed(5, "e", {"a": 1}, 1)  # trial

    def test_seed_independent_of_param_dict_order(self):
        assert derive_seed(0, "e", {"a": 1, "b": 2}, 0) == derive_seed(
            0, "e", {"b": 2, "a": 1}, 0
        )

    def test_adding_an_axis_value_preserves_existing_seeds(self):
        before = {j.job_id: j.seed for j in make_spec().jobs()}
        after = {
            j.job_id: j.seed
            for j in make_spec(grid={"a": [1, 2, 3], "b": ["x", "y", "z"]}).jobs()
        }
        for job_id, seed in before.items():
            assert after[job_id] == seed

    def test_trials_get_distinct_seeds(self):
        jobs = make_spec().jobs()
        by_cell = {}
        for j in jobs:
            by_cell.setdefault(j.params, set()).add(j.seed)
        assert all(len(seeds) == 2 for seeds in by_cell.values())


class TestSerialisation:
    def test_round_trip(self):
        spec = make_spec(
            timeout_seconds=3.5,
            inject_failures=FaultInjection(count=1, mode="crash"),
        )
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again.spec_hash() == spec.spec_hash()

    def test_hash_changes_with_grid(self):
        assert make_spec().spec_hash() != make_spec(trials=3).spec_hash()

    def test_unknown_keys_rejected(self):
        data = make_spec().to_dict()
        data["tmeout_seconds"] = 3  # the typo this guard exists for
        with pytest.raises(ValueError, match="unknown spec keys"):
            CampaignSpec.from_dict(data)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(make_spec().to_dict()))
        assert CampaignSpec.from_json_file(path).jobs() == make_spec().jobs()


_SPEC_KEYS = [
    "name", "experiment", "grid", "fixed", "trials", "base_seed",
    "timeout_seconds", "max_retries", "retry_backoff", "inject_failures",
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_valid_spec = {
    "name": "fuzz", "experiment": "lzw_recovery", "grid": {"size": [30, 40]},
    "fixed": {"k": 1}, "trials": 2, "base_seed": 3, "timeout_seconds": 5,
    "max_retries": 1, "retry_backoff": 0.0,
    "inject_failures": {"count": 1, "jobs": [], "attempts": 1, "mode": "crash"},
}
# Spec-shaped documents: a valid spec with a few fields replaced, spec
# keys with arbitrary values, and arbitrary JSON documents.
_spec_documents = st.one_of(
    st.builds(
        lambda edits: {**_valid_spec, **edits},
        st.dictionaries(
            st.sampled_from(_SPEC_KEYS + ["bogus"]), _json_values, min_size=1, max_size=3
        ),
    ),
    st.builds(
        lambda edits, inject: {**_valid_spec, **edits, "inject_failures": inject},
        st.dictionaries(st.sampled_from(_SPEC_KEYS[:2]), _json_values, max_size=1),
        st.dictionaries(
            st.sampled_from(["count", "jobs", "attempts", "mode"]), _json_values,
            max_size=4,
        ),
    ),
    st.dictionaries(st.sampled_from(_SPEC_KEYS), _json_values, max_size=6),
    _json_values,
)


class TestSpecTrustBoundary:
    """A spec read from a file or the wire either loads or raises
    ``ValueError``: never another exception, never a hang."""

    @settings(max_examples=400, deadline=500)
    @given(document=_spec_documents)
    def test_from_dict_loads_or_raises_value_error(self, document):
        try:
            spec = CampaignSpec.from_dict(document)
        except ValueError:
            return
        # A loaded spec is usable: it round-trips and sizes itself.
        assert CampaignSpec.from_dict(spec.to_dict()).spec_hash() == spec.spec_hash()
        assert spec.n_jobs() >= 1

    @pytest.mark.parametrize(
        "document,message",
        [
            ([], "JSON object"),
            ({"name": "a", "experiment": "e", "fixed": [1]}, "'fixed' must be an object"),
            ({"name": "a", "experiment": "e", "grid": [1]}, "'grid' must be an object"),
            ({"experiment": "e"}, "'name' must be a string"),
            ({"name": "a", "experiment": 7}, "'experiment' must be a string"),
            ({"name": "a", "experiment": "e", "trials": True}, "'trials' must be an integer"),
            ({"name": "a", "experiment": "e", "retry_backoff": "x"}, "must be a number"),
            ({"name": "a", "experiment": "e", "inject_failures": [1]}, "'inject_failures'"),
            ({"name": "a", "experiment": "e", "inject_failures": {"mode": "crsh"}},
             "'exception' or 'crash'"),
        ],
    )
    def test_malformed_specs_name_the_field(self, document, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec.from_dict(document)

    def test_numbers_keep_their_json_form(self):
        # An integer timeout stays an integer, so the spec hash of an
        # existing manifest does not move.
        spec = CampaignSpec.from_dict(dict(_valid_spec, retry_backoff=0))
        assert spec.timeout_seconds == 5 and isinstance(spec.timeout_seconds, int)
        assert spec.retry_backoff == 0.0 and isinstance(spec.retry_backoff, float)


class TestFaultInjection:
    def test_applies_to_leading_positions_first_attempt_only(self):
        inject = FaultInjection(count=2, attempts=1)
        jobs = make_spec().jobs()
        assert inject.applies_to(jobs[0], 0, 0)
        assert inject.applies_to(jobs[1], 1, 0)
        assert not inject.applies_to(jobs[2], 2, 0)
        assert not inject.applies_to(jobs[0], 0, 1)  # retry succeeds

    def test_applies_to_named_jobs(self):
        jobs = make_spec().jobs()
        inject = FaultInjection(jobs=[jobs[5].job_id])
        assert inject.applies_to(jobs[5], 5, 0)
        assert not inject.applies_to(jobs[4], 4, 0)
