"""Page tables, permissions, faults and frame allocation."""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
OFFSET_MASK = PAGE_SIZE - 1


class Permissions(enum.Flag):
    """Per-page access permissions."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


# Every combination of the flags is a named member, so the ``perms &
# need`` rule is an identity test against the two members granting it.
_RW = Permissions.RW
_READ = Permissions.READ
_WRITE = Permissions.WRITE


class PageFault(Exception):
    """Access violated page permissions (or hit an unmapped page).

    ``page_vaddr`` is the *masked* fault address: "even though SGX masks
    the page offset, the OS has architectural access to the address of
    [the] page that caused the page fault, albeit without the 12 lower
    address bits" (Section V-B).
    """

    def __init__(self, vaddr: int, kind: str) -> None:
        self.page_vaddr = vaddr & ~OFFSET_MASK
        self.kind = kind  # "read" | "write"
        self.args = (self.page_vaddr, kind)

    def __str__(self) -> str:
        # Built on demand: the attack handles 3 faults per secret byte
        # and reads none of their messages.
        return f"{self.kind} fault at page 0x{self.page_vaddr:x}"


@dataclass
class _PageEntry:
    frame: int
    perms: Permissions


class AddressSpace:
    """One process's (enclave's) virtual address space.

    Frames are allocated from a finite pool (SGX's EPC is small — the
    paper's platform caps it at 128 MiB) in a shuffled order, so
    virtual-contiguity does not imply physical contiguity, exactly the
    property the slice precomputation and frame selection deal with.
    """

    def __init__(self, n_frames: int = 32768, seed: int = 99) -> None:
        self._pages: dict[int, _PageEntry] = {}
        # (first vpn, last vpn) -> that range's entries, for mprotect.
        self._ranges: dict[tuple[int, int], list[_PageEntry]] = {}
        rng = random.Random(seed)
        pool = list(range(n_frames))
        rng.shuffle(pool)
        # FIFO: a frame freed by remapping goes to the back of the queue,
        # so frame selection actually explores new frames instead of
        # ping-ponging between the same two.
        self._free_frames = deque(pool)
        self.fault_count = 0

    # -- mapping ---------------------------------------------------------
    def map_range(self, vaddr: int, size: int) -> None:
        """Map all pages covering ``[vaddr, vaddr+size)`` read-write."""
        first = vaddr >> PAGE_BITS
        last = (vaddr + max(size, 1) - 1) >> PAGE_BITS
        for vpn in range(first, last + 1):
            if vpn not in self._pages:
                self._pages[vpn] = _PageEntry(self._alloc_frame(), Permissions.RW)

    def _alloc_frame(self) -> int:
        if not self._free_frames:
            raise MemoryError("out of physical frames")
        return self._free_frames.popleft()

    def frame_of(self, vaddr: int) -> int:
        return self._entry(vaddr).frame

    def remap(self, vaddr: int, frame: int | None = None) -> int:
        """Move a page to a different physical frame (frame selection).

        Returns the new frame.  With ``frame=None`` the next free frame
        is used; the old frame returns to the pool.
        """
        entry = self._entry(vaddr)
        new_frame = frame if frame is not None else self._alloc_frame()
        self._free_frames.append(entry.frame)
        entry.frame = new_frame
        return new_frame

    def free_frames_left(self) -> int:
        return len(self._free_frames)

    # -- permissions -------------------------------------------------------
    def mprotect(self, vaddr: int, size: int, perms: Permissions) -> None:
        """Set permissions on all pages covering the range.

        A range with an unmapped page raises before any page changes.
        Each range's entries are looked up once and kept: pages are
        never unmapped and :meth:`remap` changes an entry in place, so
        the kept list stays exactly the range's pages.
        """
        first = vaddr >> PAGE_BITS
        last = (vaddr + max(size, 1) - 1) >> PAGE_BITS
        entries = self._ranges.get((first, last))
        if entries is None:
            entries = []
            for vpn in range(first, last + 1):
                entry = self._pages.get(vpn)
                if entry is None:
                    raise ValueError(f"mprotect of unmapped page 0x{vpn << PAGE_BITS:x}")
                entries.append(entry)
            self._ranges[first, last] = entries
        for entry in entries:
            entry.perms = perms

    def _entry(self, vaddr: int) -> _PageEntry:
        entry = self._pages.get(vaddr >> PAGE_BITS)
        if entry is None:
            raise PageFault(vaddr, "unmapped")
        return entry

    # -- translation -------------------------------------------------------
    def translate(self, vaddr: int, kind: str) -> int:
        """Virtual -> physical, enforcing permissions.

        Raises:
            PageFault: permission missing; the exception carries only the
                masked page address, as SGX guarantees.
        """
        entry = self._entry(vaddr)
        perms = entry.perms
        if kind == "write" or kind == "update":
            if perms is not _RW and perms is not _WRITE:
                self.fault_count += 1
                raise PageFault(vaddr, "write")
        elif perms is not _RW and perms is not _READ:
            self.fault_count += 1
            raise PageFault(vaddr, "read")
        return (entry.frame << PAGE_BITS) | (vaddr & OFFSET_MASK)

    def page_addresses(self, vaddr: int, size: int) -> list[int]:
        """Page-aligned virtual addresses covering a range."""
        first = vaddr >> PAGE_BITS
        last = (vaddr + max(size, 1) - 1) >> PAGE_BITS
        return [vpn << PAGE_BITS for vpn in range(first, last + 1)]
