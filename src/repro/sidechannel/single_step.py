"""The mprotect single-stepping state machine of Fig. 5.

Each iteration of the histogram loop (Listing 3) touches exactly one of
three arrays per line — ``quadrant[i] = 0`` (write), ``block[i]``
(read), ``ftab[j]++`` (write) — so revoking one array's permission at a
time yields one fault per line: user-space single-stepping without timer
interrupts (contribution 4d).

The stepper exposes two callbacks to the attack:

* ``before_ftab_access(page_vaddr)`` — fired on the ftab write fault
  (entering S2->S3).  The masked fault address identifies the ftab
  *page* (Section V-B); this is where frame vetting and priming happen.
* ``probe_point()`` — fired at the next quadrant fault (S4->S0 of the
  following iteration), i.e. immediately after the ftab access landed:
  the Prime+Probe measurement point.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exec.arrays import TArray
from repro.memsys.paging import AddressSpace, PageFault, Permissions


class SingleStepper:
    """Drives the permissions of quadrant/block/ftab per Fig. 5."""

    def __init__(
        self,
        space: AddressSpace,
        quadrant: TArray,
        block: TArray,
        ftab: TArray,
        before_ftab_access: Optional[Callable[[int], None]] = None,
        probe_point: Optional[Callable[[], None]] = None,
    ) -> None:
        self.space = space
        self._ranges = {
            "quadrant": (quadrant.base, quadrant.length * quadrant.elem_size),
            "block": (block.base, block.length * block.elem_size),
            "ftab": (ftab.base, ftab.length * ftab.elem_size),
        }
        # page -> array name; a page two arrays share names the first.
        self._page_array: dict[int, str] = {}
        for name, (base, size) in self._ranges.items():
            for page in range(base & ~0xFFF, base + size, 0x1000):
                self._page_array.setdefault(page, name)
        self.before_ftab_access = before_ftab_access
        self.probe_point = probe_point
        self.steps = 0
        self._armed = False

    def _protect(self, name: str, perms: Permissions) -> None:
        base, size = self._ranges[name]
        self.space.mprotect(base, size, perms)

    def arm(self) -> None:
        """Enter S0: only the quadrant write is disallowed."""
        self._protect("quadrant", Permissions.READ)
        self._protect("block", Permissions.RW)
        self._protect("ftab", Permissions.RW)
        self._armed = True

    def disarm(self) -> None:
        for name in self._ranges:
            self._protect(name, Permissions.RW)
        self._armed = False

    def handle_fault(self, fault: PageFault) -> None:
        """The attacker's SIGSEGV handler: advance the state machine."""
        name = self._page_array.get(fault.page_vaddr)
        if name == "quadrant":
            # S4 -> S0: the previous iteration's ftab access is done.
            if self.probe_point is not None:
                self.probe_point()
            self._protect("quadrant", Permissions.RW)
            self._protect("block", Permissions.NONE)
            self.steps += 1
        elif name == "block":
            # S1 -> S2: let the read through, trap the ftab write.
            self._protect("block", Permissions.RW)
            self._protect("ftab", Permissions.READ)
        elif name == "ftab":
            # S2 -> S3: the architectural leak of the accessed page.
            if self.before_ftab_access is not None:
                self.before_ftab_access(fault.page_vaddr)
            self._protect("ftab", Permissions.RW)
            self._protect("quadrant", Permissions.READ)
        else:
            raise RuntimeError(
                f"unexpected fault at 0x{fault.page_vaddr:x} while stepping"
            )
