"""Unit tests for paging, permissions, faults and frame remapping."""

import pytest

from repro.memsys import (
    PAGE_SIZE,
    AddressSpace,
    PageFault,
    Permissions,
)


@pytest.fixture
def space():
    return AddressSpace(n_frames=64)


class TestMapping:
    def test_translate_roundtrip(self, space):
        space.map_range(0x10000, PAGE_SIZE)
        paddr = space.translate(0x10123, "read")
        assert paddr % PAGE_SIZE == 0x123

    def test_unmapped_faults(self, space):
        with pytest.raises(PageFault):
            space.translate(0xDEAD000, "read")

    def test_map_range_spans_pages(self, space):
        space.map_range(0x20000, 3 * PAGE_SIZE + 1)
        for off in range(0, 4 * PAGE_SIZE, PAGE_SIZE):
            space.translate(0x20000 + off, "write")

    def test_frames_are_distinct(self, space):
        space.map_range(0x0, 4 * PAGE_SIZE)
        frames = {space.frame_of(p * PAGE_SIZE) for p in range(4)}
        assert len(frames) == 4

    def test_frames_not_virtually_contiguous(self):
        space = AddressSpace(n_frames=4096)
        space.map_range(0x0, 16 * PAGE_SIZE)
        frames = [space.frame_of(p * PAGE_SIZE) for p in range(16)]
        deltas = {b - a for a, b in zip(frames, frames[1:])}
        assert deltas != {1}

    def test_out_of_frames(self):
        space = AddressSpace(n_frames=2)
        space.map_range(0, 2 * PAGE_SIZE)
        with pytest.raises(MemoryError):
            space.map_range(PAGE_SIZE * 10, PAGE_SIZE)


class TestPermissions:
    def test_write_fault_on_readonly(self, space):
        space.map_range(0x30000, PAGE_SIZE)
        space.mprotect(0x30000, PAGE_SIZE, Permissions.READ)
        space.translate(0x30000, "read")
        with pytest.raises(PageFault) as exc:
            space.translate(0x30040, "write")
        assert exc.value.kind == "write"

    def test_update_needs_write(self, space):
        space.map_range(0x30000, PAGE_SIZE)
        space.mprotect(0x30000, PAGE_SIZE, Permissions.READ)
        with pytest.raises(PageFault):
            space.translate(0x30000, "update")

    def test_none_blocks_reads(self, space):
        space.map_range(0x40000, PAGE_SIZE)
        space.mprotect(0x40000, PAGE_SIZE, Permissions.NONE)
        with pytest.raises(PageFault) as exc:
            space.translate(0x40008, "read")
        assert exc.value.kind == "read"

    def test_fault_address_masked_to_page(self, space):
        """SGX: fault addresses lose their low 12 bits (Section V-B)."""
        space.map_range(0x50000, PAGE_SIZE)
        space.mprotect(0x50000, PAGE_SIZE, Permissions.NONE)
        with pytest.raises(PageFault) as exc:
            space.translate(0x50ABC, "read")
        assert exc.value.page_vaddr == 0x50000

    def test_restore_clears_fault(self, space):
        space.map_range(0x60000, PAGE_SIZE)
        space.mprotect(0x60000, PAGE_SIZE, Permissions.NONE)
        space.mprotect(0x60000, PAGE_SIZE, Permissions.RW)
        space.translate(0x60000, "write")

    def test_mprotect_unmapped_rejected(self, space):
        with pytest.raises(ValueError):
            space.mprotect(0x999000, PAGE_SIZE, Permissions.READ)

    def test_mprotect_unmapped_then_mapped(self, space):
        """A range with an unmapped page raises without changing any
        page, and protects the whole range once the gap is mapped."""
        space.map_range(0x90000, PAGE_SIZE)
        with pytest.raises(ValueError):
            space.mprotect(0x90000, 2 * PAGE_SIZE, Permissions.READ)
        space.translate(0x90000, "write")
        space.map_range(0x91000, PAGE_SIZE)
        space.mprotect(0x90000, 2 * PAGE_SIZE, Permissions.READ)
        for vaddr in (0x90000, 0x91000):
            with pytest.raises(PageFault):
                space.translate(vaddr, "write")

    @pytest.mark.parametrize(
        "perms",
        [Permissions.NONE, Permissions.READ, Permissions.WRITE, Permissions.RW],
    )
    @pytest.mark.parametrize("kind", ["read", "write", "update"])
    def test_translate_follows_flag_rule(self, space, perms, kind):
        """Allowed exactly when ``perms & need``: WRITE for write and
        update, READ for read."""
        space.map_range(0xA0000, PAGE_SIZE)
        space.mprotect(0xA0000, PAGE_SIZE, perms)
        need = Permissions.READ if kind == "read" else Permissions.WRITE
        if perms & need:
            assert space.translate(0xA0010, kind) % PAGE_SIZE == 0x10
        else:
            with pytest.raises(PageFault) as exc:
                space.translate(0xA0010, kind)
            assert exc.value.kind == ("read" if kind == "read" else "write")
            assert space.fault_count == 1

    def test_fault_count(self, space):
        space.map_range(0x70000, PAGE_SIZE)
        space.mprotect(0x70000, PAGE_SIZE, Permissions.NONE)
        for _ in range(3):
            with pytest.raises(PageFault):
                space.translate(0x70000, "read")
        assert space.fault_count == 3


class TestRemap:
    def test_remap_changes_frame(self, space):
        space.map_range(0x80000, PAGE_SIZE)
        old = space.frame_of(0x80000)
        new = space.remap(0x80000)
        assert new != old
        assert space.frame_of(0x80000) == new

    def test_remap_recycles_fifo(self, space):
        """Consecutive remaps must explore fresh frames, not ping-pong."""
        space.map_range(0x80000, PAGE_SIZE)
        seen = {space.frame_of(0x80000)}
        for _ in range(10):
            seen.add(space.remap(0x80000))
        assert len(seen) == 11

    def test_remap_preserves_permissions(self, space):
        space.map_range(0x80000, PAGE_SIZE)
        space.mprotect(0x80000, PAGE_SIZE, Permissions.READ)
        space.remap(0x80000)
        with pytest.raises(PageFault):
            space.translate(0x80000, "write")

    def test_protect_after_remap_governs_new_frame(self, space):
        """Protecting a range again after one of its pages moved still
        applies to that page, at its new frame."""
        space.map_range(0x80000, 2 * PAGE_SIZE)
        space.mprotect(0x80000, 2 * PAGE_SIZE, Permissions.RW)
        new = space.remap(0x81000)
        space.mprotect(0x80000, 2 * PAGE_SIZE, Permissions.NONE)
        with pytest.raises(PageFault):
            space.translate(0x81000, "read")
        space.mprotect(0x80000, 2 * PAGE_SIZE, Permissions.READ)
        assert space.translate(0x81040, "read") == new * PAGE_SIZE + 0x40

    def test_page_addresses(self, space):
        got = space.page_addresses(0x1800, 2 * PAGE_SIZE)
        assert got == [0x1000, 0x2000, 0x3000]
