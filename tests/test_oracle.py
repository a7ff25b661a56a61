"""Tests for the compression-oracle scenario family (repro.oracle)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.experiments import get_experiment
from repro.compression.gzip_container import gzip_decompress
from repro.mitigations.padding import (
    RandomPadding,
    SizeQuantization,
    get_oracle_mitigation,
)
from repro.oracle import (
    BreachAttack,
    MemCompTimingDistinguisher,
    make_oracle,
    make_victim,
)
from repro.recovery.oracle_recover import (
    _SEPARATORS,
    probe_pair,
    recover_secret,
)
from repro.traces.format import (
    OracleProbe,
    SPECIES_ORACLE,
    serialize_records,
)
from repro.workloads.generators import TOKEN_CHARSETS, token_secret
from tests.ztrc_reference import deserialize_records


class TestVictims:
    def test_http_secret_inside_response(self):
        victim = make_victim("http", seed=3)
        assert victim.secret in victim.payload(b"query")
        assert victim.known_prefix + victim.secret in victim.payload(b"")

    def test_http_compress_roundtrips(self):
        victim = make_victim("http", seed=3)
        blob = victim.compress(b"hello")
        assert gzip_decompress(blob) == victim.payload(b"hello")

    def test_http_debreach_compress_roundtrips(self):
        victim = make_victim("http", mitigation="debreach", seed=3)
        blob = victim.compress(b"hello")
        assert gzip_decompress(blob) == victim.payload(b"hello")

    def test_memcomp_page_fixed_size(self):
        victim = make_victim("memcomp", seed=3)
        assert len(victim.page_bytes(b"")) == victim.page_size
        assert len(victim.page_bytes(b"x" * 40)) == victim.page_size

    def test_memcomp_guess_overflow_rejected(self):
        victim = make_victim("memcomp", seed=3)
        with pytest.raises(ValueError, match="overflows"):
            victim.page_bytes(b"x" * victim.page_size)

    def test_memcomp_rejects_debreach(self):
        with pytest.raises(ValueError, match="debreach"):
            make_victim("memcomp", mitigation="debreach")

    def test_unknown_victim_rejected(self):
        with pytest.raises(ValueError, match="unknown victim"):
            make_victim("smtp")


class TestSealedOracle:
    """The oracle must be a deterministic pure function of
    (victim secret/seed, query, oracle seed, query index)."""

    @given(
        query=st.binary(max_size=40),
        victim_seed=st.integers(0, 50),
        oracle_seed=st.integers(0, 50),
        observable=st.sampled_from(["size", "time"]),
        mitigation=st.sampled_from(["none", "padding", "quantize", "jitter"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_observation_is_pure(
        self, query, victim_seed, oracle_seed, observable, mitigation
    ):
        values = []
        for _ in range(2):
            victim = make_victim(
                "http", seed=victim_seed, secret_len=6, filler_bytes=48
            )
            oracle = make_oracle(victim, observable, mitigation, seed=oracle_seed)
            values.append(oracle.observe(query))
        assert values[0] == values[1]

    def test_query_index_decorrelates_mitigation_noise(self):
        # Same query twice through one padded oracle: the per-query RNG
        # includes the query counter, so the draws differ (no replay).
        victim = make_victim("http", seed=1, secret_len=6, filler_bytes=48)
        oracle = make_oracle(victim, "size", "padding", seed=0)
        a, b = oracle.observe(b"q"), oracle.observe(b"q")
        assert oracle.queries == 2
        # Not guaranteed unequal for every seed, but for this pinned one.
        assert a != b

    def test_size_oracle_matches_victim(self):
        victim = make_victim("http", seed=2, secret_len=6)
        oracle = make_oracle(victim, "size", "none", seed=0)
        assert oracle.observe(b"zz") == victim.size(b"zz")

    def test_unknown_observable_rejected(self):
        victim = make_victim("http", seed=2)
        with pytest.raises(ValueError, match="unknown observable"):
            make_oracle(victim, "power")

    def test_units_per_byte_scales(self):
        victim = make_victim("http", seed=2)
        assert make_oracle(victim, "size").units_per_byte == 1.0
        assert (
            make_oracle(victim, "time").units_per_byte
            == victim.TICKS_PER_BYTE
        )


class TestProbePair:
    @given(
        known=st.binary(max_size=6),
        chars=st.lists(
            st.sampled_from(list(TOKEN_CHARSETS["alnum_lower"])),
            min_size=1,
            max_size=18,
            unique=True,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_length_and_multiset(self, known, chars):
        match, broken = probe_pair(b'value="', known, chars)
        assert len(match) == len(broken)
        assert sorted(match) == sorted(broken)
        assert match != broken

    def test_too_many_candidates_rejected(self):
        with pytest.raises(ValueError, match="separators"):
            probe_pair(b"p", b"", list(range(len(_SEPARATORS) + 1)))


class TestMitigations:
    @given(
        size=st.integers(100, 5_000),
        delta=st.integers(0, 63),
        quantum=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantization_bucket_indistinguishable(self, size, delta, quantum):
        # Any two sizes inside one quantum bucket map to the same
        # observation — the attacker's 1-byte delta disappears.
        mit = SizeQuantization(quantum=quantum)
        rng = random.Random(0)
        base = (size // quantum) * quantum + 1  # first size in the bucket
        other = base + (delta % quantum)
        if (base - 1) // quantum == (other - 1) // quantum:
            assert mit.transform_size(base, rng) == mit.transform_size(
                other, rng
            )

    @given(size=st.integers(0, 10_000), quantum=st.sampled_from([8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_quantization_bounds(self, size, quantum):
        out = SizeQuantization(quantum=quantum).transform_size(
            size, random.Random(0)
        )
        assert size <= out < size + quantum
        assert out % quantum == 0

    @given(size=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_padding_bounds(self, size):
        mit = RandomPadding(max_pad=32)
        out = mit.transform_size(size, random.Random(1))
        assert size <= out <= size + 32

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown oracle mitigation"):
            get_oracle_mitigation("prayer")


class TestBreachAttack:
    def test_recovers_secret_from_size_deltas(self):
        victim = make_victim("http", seed=11, secret_len=8)
        oracle = make_oracle(victim, "size", "none", seed=0)
        attack = BreachAttack(oracle, victim.known_prefix, seed=5)
        result = attack.run(8, truth=victim.secret)
        assert result.correct and result.success
        assert result.recovered == victim.secret
        assert result.queries > 0 and len(result.probes) > 0

    def test_fails_under_padding(self):
        victim = make_victim("http", seed=11, secret_len=8)
        oracle = make_oracle(victim, "size", "padding", seed=0)
        attack = BreachAttack(
            oracle, victim.known_prefix, seed=5, max_queries=3_000
        )
        result = attack.run(8, truth=victim.secret)
        assert result.correct is False

    def test_fails_under_debreach(self):
        victim = make_victim("http", mitigation="debreach", seed=11,
                             secret_len=6)
        oracle = make_oracle(victim, "size", "debreach", seed=0)
        attack = BreachAttack(
            oracle, victim.known_prefix, seed=5, max_queries=3_000
        )
        result = attack.run(6, truth=victim.secret)
        assert result.correct is False

    def test_recover_secret_reports_partial_failure(self):
        # A dead oracle (constant size) confirms nothing.
        result = recover_secret(lambda q: 100.0, b"prefix", 4, seed=0)
        assert result.recovered == b""
        assert not result.success
        assert result.requested == 4 and result.confirmed == 0


class TestMemCompDistinguisher:
    @staticmethod
    def _candidates(victim, n, seed):
        decoys = [
            token_secret(len(victim.secret), seed=seed * 977 + i + 1)
            for i in range(n - 1)
        ]
        return [victim.secret] + decoys

    def test_picks_resident_secret(self):
        victim = make_victim("memcomp", seed=9)
        oracle = make_oracle(victim, "time", "none", seed=0)
        result = MemCompTimingDistinguisher(oracle, reps=5).run(
            self._candidates(victim, 10, 9)
        )
        assert result.chosen == victim.secret
        assert result.chosen_index == 0
        assert result.margin > 0

    def test_heavy_jitter_breaks_it(self):
        victim = make_victim("memcomp", seed=9)
        oracle = make_oracle(
            victim, "time", "jitter", seed=0, sigma=2_000.0
        )
        result = MemCompTimingDistinguisher(oracle, reps=3).run(
            self._candidates(victim, 10, 9)
        )
        assert result.chosen != victim.secret

    def test_empty_candidates_rejected(self):
        victim = make_victim("memcomp", seed=9)
        oracle = make_oracle(victim, "time", "none", seed=0)
        with pytest.raises(ValueError, match="candidate"):
            MemCompTimingDistinguisher(oracle).run([])


class TestOracleTraces:
    @given(
        probes=st.lists(
            st.builds(
                OracleProbe,
                step=st.integers(0, 40),
                label=st.text(max_size=12),
                probe_len=st.integers(0, 4_000),
                observation=st.floats(
                    allow_nan=False, allow_infinity=False, width=64
                ),
                queries=st.integers(0, 100_000),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_codec_round_trip(self, probes):
        blob = serialize_records(SPECIES_ORACLE, probes)
        assert deserialize_records(blob) == probes

    def test_capture_into_store(self, tmp_path):
        from repro.traces import TraceStore, capture_oracle_trace

        store = TraceStore(str(tmp_path / "probes.trstore"))
        probes = [
            OracleProbe(0, "confirm:a", 30, -1.0, 6),
            OracleProbe(1, "half:bcde", 60, 0.5, 14),
        ]
        entry = capture_oracle_trace(
            store, "t1", probes, victim="http", observable="size"
        )
        assert entry.species == SPECIES_ORACLE
        assert entry.n_records == 2
        cols = store.read_columns("t1")
        assert cols.step.tolist() == [p.step for p in probes]
        assert cols.lookup(cols.label_id).tolist() == [p.label for p in probes]
        assert cols.observation.tolist() == [p.observation for p in probes]
        assert cols.queries.tolist() == [p.queries for p in probes]
        assert store.get("t1").meta["victim"] == "http"


class TestExperiments:
    def test_breach_recovery_metrics_json_safe(self):
        import json

        result = get_experiment("breach_recovery")({"secret_len": 5}, 4)
        json.dumps(result)
        assert result["correct"] and result["matching_fraction"] == 1.0
        assert "recovered" not in result  # the secret never leaves

    def test_memcomp_timing_experiment(self):
        result = get_experiment("memcomp_timing")({"n_candidates": 8}, 4)
        assert result["correct"]
        assert result["queries"] == 8 * 5

    def test_mitigation_sweep_shape(self):
        metrics = get_experiment("oracle_mitigation_sweep")(
            {
                "observables": ["size"],
                "mitigations": ["none", "quantize"],
                "secret_len": 4,
                "mi_samples": 0,
                "max_queries": 2_000,
            },
            4,
        )
        assert metrics["size.none.correct"] == 1.0
        assert metrics["size.quantize.correct"] == 0.0
        assert metrics["size.quantize.overhead_pct"] > 0


class TestOracleDiag:
    def test_open_channel_saturates(self):
        from repro.diag.oracle import measure_oracle_channel

        diag = measure_oracle_channel("size", "none", n_samples=12, seed=3)
        assert diag.recovered_fraction == 1.0
        assert diag.mi_bits == pytest.approx(diag.capacity_bits)

    def test_metric_directions(self):
        from repro.diag import metric_direction

        assert metric_direction("oracle.size.mi_bits") == "higher"
        assert metric_direction("oracle.size.recovered_fraction") == "higher"
        assert metric_direction("oracle.size.padding.mi_bits") == "lower"
        assert (
            metric_direction("oracle.size.padding.recovered_fraction")
            == "lower"
        )
        assert metric_direction("oracle.size.capacity_bits") == "info"


class TestOracleCli:
    def test_demo(self, capsys):
        from repro.cli import main

        assert main(["oracle", "demo", "--secret-len", "6"]) == 0
        out = capsys.readouterr().out
        assert "two-guess size delta" in out

    def test_attack_recovers(self, capsys):
        from repro.cli import main

        assert (
            main(["oracle", "attack", "--secret-len", "6", "--seed", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "SECRET RECOVERED" in out

    def test_sweep_table(self, capsys):
        from repro.cli import main

        assert main(
            [
                "oracle", "sweep",
                "--observables", "size",
                "--mitigations", "none",
                "--secret-len", "4",
                "--mi-samples", "0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "mitigation" in out and "size" in out


class TestOracleCampaign:
    def test_breach_recovers_unmitigated_and_padding_defends(self, tmp_path, capsys):
        """Two ``breach_recovery`` cells through the campaign engine:
        the secret is recovered with no mitigation and not under
        padding."""
        import json

        from repro.campaign.store import ResultStore
        from repro.cli import main

        spec = {
            "name": "oracle-smoke",
            "experiment": "breach_recovery",
            "grid": {"mitigation": ["none", "padding"]},
            "fixed": {"victim": "http", "observable": "size", "secret_len": 6},
            "base_seed": 11,
        }
        spec_path = tmp_path / "oracle_spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "runs" / "oracle"
        assert main(["campaign", "run", str(spec_path), "--out", str(out),
                     "--quiet"]) == 0
        capsys.readouterr()
        records = ResultStore(str(out)).load_records()
        by_mit = {r.params["mitigation"]: r for r in records.values()}
        assert by_mit["none"].status == "ok" and by_mit["none"].metrics["correct"]
        assert by_mit["padding"].status == "ok"
        assert not by_mit["padding"].metrics["correct"]
