"""The mitigation synthesis loop: plan, apply, verify.

Covers the planner's per-site policy, the wrapper tables' two load-
bearing invariants (values are preserved exactly; the per-access
touched-line multiset is input-independent), the end-to-end
``verify_mitigation`` loop on all three compressor targets, the
``leaked_input_bytes`` accounting fix (key taint must not count as
input leakage), and Hypothesis properties pinning that every patched
kernel's output is byte-identical to the vulnerable kernel's and
decodes with the stock decompressors.
"""

import contextlib
import json
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.taintchannel.tool import TaintChannel, target_for
from repro.exec import NativeContext, TracingContext
from repro.exec.events import MemoryAccess
from repro.mitigations import (
    MaskedTable,
    MitigationPlan,
    PreloadedTable,
    build_kernel,
    build_plan,
    verify_mitigation,
)
from repro.mitigations.plan import (
    MITIGATION_GUARD,
    MITIGATION_MASK,
    MITIGATION_NONE,
    MITIGATION_OBLIVIOUS,
    MITIGATION_PRELOAD,
    plan_site,
)
from repro.workloads import random_bytes


def _scan(target: str, data: bytes):
    tc = TaintChannel()
    return tc.analyze(target, target_for(target, data))


class TestPlanner:
    def test_lzw_plan_is_oblivious_everywhere(self):
        result = _scan("lzw", random_bytes(120, seed=7))
        plan = build_plan(result)
        assert plan.target == "lzw"
        assert plan.sites  # the scan found gadgets to plan for
        for sp in plan.sites:
            assert sp.mitigation == MITIGATION_OBLIVIOUS
            assert sp.cover_lines == sp.table_lines
            assert sp.flow == "data"

    def test_zlib_plan_masks_the_tree_counters(self):
        result = _scan("zlib", random_bytes(120, seed=7))
        plan = build_plan(result)
        by_array = {sp.array: sp for sp in plan.sites}
        # dyn_ltree: one input byte indexes an aligned table -> few
        # tainted line bits -> masking beats the full scan.
        tree = by_array["dyn_ltree"]
        assert tree.mitigation == MITIGATION_MASK
        assert tree.params["mask_index_bits"]
        assert tree.cover_lines < tree.table_lines
        # head: the hash mixes several input bytes -> taint spans the
        # whole index -> full scan.
        assert by_array["head"].mitigation == MITIGATION_OBLIVIOUS

    def test_secret_spans_switch_match_finder_to_guard(self):
        result = _scan("zlib", random_bytes(120, seed=7))
        plan = build_plan(result, secret_spans=[(10, 30)])
        head = next(sp for sp in plan.sites if sp.array == "head")
        assert head.mitigation == MITIGATION_GUARD
        assert head.params["secret_spans"] == [[10, 30]]
        # Non-match-finder tables keep their covers.
        tree = next(sp for sp in plan.sites if sp.array == "dyn_ltree")
        assert tree.mitigation == MITIGATION_MASK

    def test_untainted_site_gets_none(self):
        result = _scan("lzw", random_bytes(60, seed=1))
        gadget = result.gadgets[0]
        for acc in gadget.accesses:
            acc.addr_taint = type(acc.addr_taint).empty()
        sp = plan_site(gadget, result)
        assert sp.mitigation == MITIGATION_NONE

    def test_read_only_site_gets_preload(self):
        result = _scan("lzw", random_bytes(60, seed=1))
        gadget = result.gadgets[0]
        gadget.accesses = [a for a in gadget.accesses if a.kind == "read"]
        gadget.kinds = {"read"}
        sp = plan_site(gadget, result)
        assert sp.mitigation == MITIGATION_PRELOAD

    def test_plan_json_roundtrip(self):
        result = _scan("zlib", random_bytes(100, seed=7))
        plan = build_plan(result)
        text = plan.to_json()
        back = MitigationPlan.from_json(text)
        assert back == plan
        # and the document is plain JSON all the way down
        json.loads(text)


class TestWrapperTables:
    """Value preservation + input-independent touched-line multisets."""

    def _lines_per_access(self, ctx, site):
        return [
            e.address >> 6
            for e in ctx.events
            if isinstance(e, MemoryAccess) and e.site == site
        ]

    def test_masked_table_preserves_values(self):
        ctx = TracingContext(record_untainted_accesses=True)
        arr = ctx.array("t", 256, elem_size=1)
        wrapped = MaskedTable(arr, mask_bits=[6, 7], site="m")
        for i in (0, 63, 64, 200, 255):
            wrapped.set(i, i % 251, site="m")
        for i in (0, 63, 64, 200, 255):
            assert wrapped.get(i, site="m") == i % 251

    def test_masked_table_line_multiset_is_index_independent(self):
        multisets = []
        for index in (0, 5, 77, 130, 255):
            ctx = TracingContext(record_untainted_accesses=True)
            arr = ctx.array("t", 256, elem_size=1)
            wrapped = MaskedTable(arr, mask_bits=[6, 7], site="m")
            wrapped.get(index, site="m")
            lines = self._lines_per_access(ctx, "m")
            base = min(lines)
            multisets.append(sorted(line - base for line in lines))
        assert all(m == multisets[0] for m in multisets)

    def test_preloaded_table_line_multiset_is_index_independent(self):
        multisets = []
        for index in (0, 9, 100, 255):
            ctx = TracingContext(record_untainted_accesses=True)
            arr = ctx.array("t", 256, elem_size=1)
            wrapped = PreloadedTable(arr, site="p")
            wrapped.get(index, site="p")
            lines = self._lines_per_access(ctx, "p")
            base = min(lines)
            multisets.append(sorted(line - base for line in lines))
        # every access touches every line exactly once
        assert all(m == multisets[0] for m in multisets)
        assert multisets[0] == [0, 1, 2, 3]

    def test_preloaded_table_preserves_values(self):
        ctx = TracingContext(record_untainted_accesses=True)
        arr = ctx.array("t", 128, elem_size=1)
        wrapped = PreloadedTable(arr, site="p")
        wrapped.set(3, 42, site="p")
        wrapped.add(3, 1, site="p")
        assert wrapped.get(3, site="p") == 43
        assert arr.get(3, site="raw") == 43


class TestLeakedInputBytes:
    def test_aes_scan_counts_only_input_tags(self):
        from repro.core.taintchannel.tool import run_gadget_scan

        data = bytes(range(32))  # 16 key bytes + 16 block bytes
        scan = run_gadget_scan("aes", data)
        result = _scan("aes", data)
        expected = {}
        saw_key_taint = False
        for g in result.gadgets:
            leaked = g.leaked_tags()
            expected[g.site] = sum(
                1 for t in leaked
                if result.tags.info(t).source == "input"
            )
            saw_key_taint = saw_key_taint or any(
                result.tags.info(t).source == "key" for t in leaked
            )
        # The AES gadgets leak *key* bytes through the channel; those
        # must not inflate the input-byte count.
        assert saw_key_taint
        for g in scan["gadgets"]:
            assert g["leaked_input_bytes"] == expected[g["site"]]
            assert g["leaked_input_bytes"] <= 16


class TestVerifyMitigation:
    @pytest.mark.parametrize(
        "target,size",
        [("zlib", 100), ("lzw", 80), ("bzip2", 60)],
    )
    def test_loop_closes_the_channel(self, target, size):
        report = verify_mitigation(target, size=size)
        assert report.plan.mitigated_sites()
        # the channel was open before...
        assert report.before.mi_bits_per_byte > 1.0
        # ...and is closed after (plug-in MI estimator bias keeps the
        # zlib estimate slightly above exact zero at this sample size)
        assert report.after.mi_bits_per_byte < 0.1
        assert report.after.byte_accuracy == 0.0
        assert not report.residual_sites
        assert not report.leftover_sites
        assert report.output_equal
        assert report.decodable
        assert report.access_overhead > 1.0
        assert "before" in report.summary() or report.summary()

    def test_guarded_zlib_passes_span_check(self):
        report = verify_mitigation(
            "zlib", size=80, secret_spans=[(10, 30)]
        )
        assert report.guarded
        assert report.guard_ok
        assert report.decodable


class TestMitigateCli:
    def test_report_json(self, capsys):
        from repro.cli import main

        assert main(
            ["mitigate", "report", "lzw", "--size", "60", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["after.mi_bits_per_byte"] < 0.1
        assert payload["output_equal"] == 1

    def test_survey_plan_roundtrips_through_apply(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        assert main(
            ["mitigate", "survey", "lzw", "--random", "80",
             "--out", str(plan_path)]
        ) == 0
        assert main(
            ["mitigate", "apply", "lzw", "--random", "80",
             "--plan", str(plan_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "byte-identical to vulnerable kernel: True" in out


def _site_entry(site: str, mitigation: str, **params) -> dict:
    return {
        "site": site, "array": "htab", "mitigation": mitigation,
        "flow": "data", "kinds": ["read"], "leaked_addr_bits": [9, 10],
        "leaked_input_tags": 1, "leaked_other_tags": 0, "accesses": 3,
        "table_lines": 512, "cover_lines": 4, "rationale": "fuzz",
        "params": params,
    }


#: A well-formed plan exercising every mitigation kind and both params.
_VALID_PLAN = {
    "target": "lzw",
    "input_len": 8,
    "sites": [
        _site_entry("compress/htab[hp]", "oblivious"),
        _site_entry("compress/codetab[hp]", "mask", mask_index_bits=[8, 9]),
        _site_entry("compress/htab[hp] (secondary probe)", "preload"),
        _site_entry("deflate_slow/head[ins_h]", "guard", secret_spans=[[0, 4]]),
        _site_entry("other", "none"),
    ],
}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["lzw", "zlib", "bzip2", "mask", "oblivious", "preload",
                       "guard", "none", "bogus", "mask_index_bits"])
    | st.integers(0, 70),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container path, key) pair of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def damaged_plans(draw) -> str:
    """The valid plan with a few fields replaced, deleted or added, or
    its text cut short."""
    doc = json.loads(json.dumps(_VALID_PLAN))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        parent = doc
        for step in prefix:
            parent = parent[step]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "delete" and isinstance(parent, dict):
            del parent[key]
        elif op == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(_JSON_VALUES)
        else:
            parent[key] = draw(_JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Turn a plan that hangs the kernel into a test failure instead of
    a hung suite."""

    def expire(signum, frame):
        raise TimeoutError(f"plan ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Each of these crashed ``from_json`` or the patched kernel with a
# KeyError/TypeError before plans were checked on load.
_BAD_PLANS = [
    "{}",
    "[1]",
    json.dumps({"target": "lzw", "input_len": 8, "sites": [{"site": "x"}]}),
    "not json",
    json.dumps({**_VALID_PLAN, "sites": [_site_entry("compress/htab[hp]", "bogus")]}),
    json.dumps({**_VALID_PLAN, "sites": [_site_entry("compress/htab[hp]", "mask")]}),
]


class TestPlanTrustBoundary:
    """A plan file either loads into a plan every kernel factory can
    run, or fails with :class:`ValueError` (``mitigate apply`` exit 2);
    nothing else escapes and nothing hangs."""

    def test_valid_plan_loads_and_runs(self):
        plan = MitigationPlan.from_json(json.dumps(_VALID_PLAN))
        assert [sp.mitigation for sp in plan.sites] == [
            "oblivious", "mask", "preload", "guard", "none",
        ]
        data = b"abcabcab"
        from repro.compression.lzw import lzw_compress

        assert build_kernel("lzw", plan).run_native(data) == lzw_compress(data)

    @settings(max_examples=150, deadline=2000)
    @given(text=damaged_plans())
    @example(text=_BAD_PLANS[0])
    @example(text=_BAD_PLANS[1])
    @example(text=_BAD_PLANS[2])
    @example(text=_BAD_PLANS[3])
    @example(text=_BAD_PLANS[4])
    @example(text=_BAD_PLANS[5])
    def test_damaged_plan_runs_or_raises_value_error(self, text):
        with _time_limit(5.0):
            try:
                plan = MitigationPlan.from_json(text)
                kernel = build_kernel(plan.target, plan)
            except ValueError:
                return
            kernel.run_native(b"abcabcab")

    @pytest.mark.parametrize("text", _BAD_PLANS, ids=[
        "empty-object", "list", "site-missing-fields", "not-json",
        "unknown-kind", "mask-without-bits",
    ])
    def test_apply_exits_2_with_one_error_line(self, text, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(text)
        assert main(
            ["mitigate", "apply", "lzw", "--random", "20",
             "--plan", str(plan_path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOutputProperties:
    """Hypothesis: patched kernels never change what gets emitted."""

    @pytest.fixture(scope="class")
    def kernels(self):
        built = {}
        for target, size in (("zlib", 100), ("lzw", 80), ("bzip2", 60)):
            result = _scan(target, random_bytes(size, seed=7))
            built[target] = build_kernel(target, build_plan(result))
        return built

    @settings(max_examples=12, deadline=None)
    @given(data=st.binary(min_size=0, max_size=64))
    def test_lzw_output_identical_and_decodable(self, kernels, data):
        from repro.compression.lzw import lzw_compress, lzw_decompress

        blob = kernels["lzw"].run_native(data)
        assert blob == lzw_compress(data, NativeContext())
        assert lzw_decompress(blob) == data

    @settings(max_examples=8, deadline=None)
    @given(data=st.binary(min_size=0, max_size=64))
    def test_zlib_output_identical_and_decodable(self, kernels, data):
        from repro.compression.lz77 import (
            deflate_compress,
            deflate_decompress,
        )

        blob = kernels["zlib"].run_native(data)
        assert blob == deflate_compress(data, NativeContext())
        assert deflate_decompress(blob) == data

    @settings(max_examples=6, deadline=None)
    @given(data=st.binary(min_size=0, max_size=48))
    @example(data=b"")  # no block at all
    @example(data=b"aaaa")  # RLE1 lengthens the input ...
    @example(data=b"aaaab")
    @example(data=b"a" * 10)  # ... or shortens it
    def test_bzip2_output_identical_and_decodable(self, kernels, data):
        from repro.compression.bzip2 import (
            SITE_FTAB,
            bzip2_compress,
            bzip2_decompress,
        )

        kernel = kernels["bzip2"]
        blob = kernel.run_native(data)
        assert blob == bzip2_compress(data, NativeContext())
        assert bzip2_decompress(blob) == data
        # One full block: mainSort's histogram (the wrapped ftab) ran.
        assert (SITE_FTAB in kernel.wrappers) == bool(data)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_lzw_step_multisets_input_independent(self, kernels, seed):
        """At the mitigated sites, the touched-line multiset of every
        logical step is one fixed set: the whole covered table."""
        from repro.compression.lzw import SITE_PRIMARY, SITE_SECONDARY

        kernel = kernels["lzw"]
        data = random_bytes(40, seed=seed)
        ctx = TracingContext(record_untainted_accesses=True)
        kernel.run(data, ctx)
        wrapper = kernel.wrappers[SITE_PRIMARY]
        n_lines = len(wrapper._line_starts)
        lines = [
            e.address >> 6
            for e in ctx.events
            if isinstance(e, MemoryAccess)
            and e.site in (SITE_PRIMARY, SITE_SECONDARY)
            and e.kind == "read"
        ]
        assert lines and len(lines) % n_lines == 0
        base = min(lines)
        expected = sorted(range(n_lines))
        for step in range(0, len(lines), n_lines):
            burst = sorted(line - base for line in lines[step:step + n_lines])
            assert burst == expected
