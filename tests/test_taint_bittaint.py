"""Unit tests for the bit-level taint set algebra."""

import pytest

from repro.taint.bittaint import BitTaint


class TestConstruction:
    def test_empty_is_falsy(self):
        assert not BitTaint.empty()
        assert BitTaint.empty().is_empty()

    def test_byte_covers_eight_bits(self):
        t = BitTaint.byte(7)
        assert t.tainted_bits() == list(range(8))
        assert t.tags() == {7}

    def test_byte_with_offset(self):
        t = BitTaint.byte(3, lo_bit=8)
        assert t.tainted_bits() == list(range(8, 16))

    def test_of_bits(self):
        t = BitTaint.of_bits(5, [0, 2, 4])
        assert t.bits_of_tag(5) == [0, 2, 4]


class TestPropagation:
    def test_union_merges_per_bit(self):
        a = BitTaint.of_bits(1, [0, 1])
        b = BitTaint.of_bits(2, [1, 2])
        u = a.union(b)
        assert u.at(0) == {1}
        assert u.at(1) == {1, 2}
        assert u.at(2) == {2}

    def test_union_with_empty_is_identity(self):
        a = BitTaint.byte(1)
        assert a.union(BitTaint.empty()) == a
        assert BitTaint.empty().union(a) == a

    def test_shift_left(self):
        t = BitTaint.byte(0).shifted(5)
        assert t.tainted_bits() == list(range(5, 13))

    def test_shift_right_drops_low_bits(self):
        t = BitTaint.byte(0).shifted(-3)
        assert t.tainted_bits() == list(range(0, 5))

    def test_shift_right_past_zero_empties(self):
        assert BitTaint.byte(0).shifted(-8).is_empty()

    def test_mask_keeps_only_set_bits(self):
        # The paper: "and between a tainted value and an untainted value
        # ... includes the original tags only where the untainted values
        # were 1".
        t = BitTaint.byte(0).masked(0b10100101)
        assert t.tainted_bits() == [0, 2, 5, 7]

    def test_mask_zlib_0x7fff(self):
        # UPDATE_HASH masks ins_h with 0x7fff: taint above bit 14 dies.
        t = BitTaint.byte(0).shifted(10).masked(0x7FFF)
        assert t.tainted_bits() == list(range(10, 15))

    def test_truncated(self):
        t = BitTaint.byte(0).shifted(4).truncated(8)
        assert t.tainted_bits() == [4, 5, 6, 7]

    def test_smeared(self):
        t = BitTaint.of_bits(1, [3]).smeared(8)
        assert t.tainted_bits() == [3, 4, 5, 6, 7]
        assert all(t.at(b) == {1} for b in range(3, 8))

    def test_carry_extended(self):
        t = BitTaint.of_bits(1, [2]).carry_extended(6)
        assert t.tainted_bits() == [2, 3, 4, 5]

    def test_carry_extended_union_of_lower(self):
        a = BitTaint.of_bits(1, [1]).union(BitTaint.of_bits(2, [3]))
        t = a.carry_extended(5)
        assert t.at(2) == {1}
        assert t.at(4) == {1, 2}

    def test_sign_extension(self):
        t = BitTaint.of_bits(1, [7]).sign_extended(8, 12)
        assert t.tainted_bits() == [7, 8, 9, 10, 11]

    def test_sign_extension_untainted_sign_bit(self):
        t = BitTaint.of_bits(1, [3]).sign_extended(8, 12)
        assert t.tainted_bits() == [3]


class TestXorMergeExample:
    def test_paper_xor_example(self):
        """Section III-B: rax tainted by byte 5 in bits 0-1, rbx by byte 6
        in bits 1-2; xor has byte5@0, both@1, byte6@2."""
        rax = BitTaint.of_bits(5, [0, 1])
        rbx = BitTaint.of_bits(6, [1, 2])
        r = rax.union(rbx)
        assert r.at(0) == {5}
        assert r.at(1) == {5, 6}
        assert r.at(2) == {6}


class TestRendering:
    def test_rows(self):
        t = BitTaint.of_bits(1, [0, 1]).union(BitTaint.of_bits(2, [1]))
        assert t.rows() == {1: [0, 1], 2: [1]}

    def test_repr_spans(self):
        t = BitTaint.of_bits(9, [1, 2, 3, 7])
        assert "9:[1-3,7]" in repr(t)

    def test_equality_and_hash(self):
        a = BitTaint.of_bits(1, [0, 5])
        b = BitTaint.of_bits(1, [5, 0])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert BitTaint.of_bits(1, [0]) != BitTaint.of_bits(2, [0])


class TestCanonicalRuns:
    def test_empty_tag_sets_carry_no_taint(self):
        # Only a crafted per-bit map (or ZTRC run) has an empty tag set;
        # such a bit is dropped rather than making the taint truthy.
        assert not BitTaint({3: frozenset()})
        assert BitTaint({3: frozenset()}) == BitTaint.empty()
        t = BitTaint({1: frozenset({2}), 3: frozenset()})
        assert t == BitTaint.of_bits(2, [1])
        assert BitTaint.from_runs([(0, 8, frozenset())]).is_empty()

    def test_equal_tag_sets_merge_into_one_run(self):
        t = BitTaint({bit: frozenset([4, 5]) for bit in range(3, 9)})
        assert len(t.runs) == 1 and t.runs[0][:2] == (3, 9)

    def test_multi_run_union(self):
        # LZW's htab index (c << 9) ^ ent: two runs, no per-bit map.
        c = BitTaint.byte(1).shifted(9)
        ent = BitTaint.byte(2, 0).union(BitTaint.byte(3, 8))
        t = c.union(ent)
        assert [(lo, hi, sorted(tags)) for lo, hi, tags in t.runs] == [
            (0, 8, [2]), (8, 9, [3]), (9, 16, [1, 3]), (16, 17, [1]),
        ]
