"""The enclave execution context."""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.model import Cache
from repro.exec.arrays import HookedArray, TArray
from repro.exec.context import ExecutionContext
from repro.memsys.paging import AddressSpace, PageFault

# Enclave virtual layout starts here; arrays are page-aligned by default.
_ENCLAVE_BASE = 0x7F90_0000_0000
_GUARD = 0x2000

FaultHandler = Callable[[PageFault], None]
EnvHook = Callable[[int, str], None]


class EnclaveKilled(RuntimeError):
    """A fault was not resolved by the handler (or no handler is set)."""


class Enclave(ExecutionContext):
    """Victim execution on the simulated memory system.

    Args:
        space: the (attacker-controlled) page tables.
        cache: the shared LLC.
        cos: class of service for the victim's fills (the attack
            partition when CAT is configured).
        env_hook: called after every completed victim access — this is
            where the simulation environment steps concurrent background
            noise; it is *not* an attacker capability.
        max_fault_retries: a single access faulting more than this many
            times means the handler is not making progress.
    """

    def __init__(
        self,
        space: AddressSpace,
        cache: Cache,
        cos: int = 0,
        env_hook: Optional[EnvHook] = None,
        max_fault_retries: int = 8,
    ) -> None:
        self.space = space
        self.cache = cache
        self.cos = cos
        self.env_hook = env_hook
        self.fault_handler: Optional[FaultHandler] = None
        self.max_fault_retries = max_fault_retries
        self._next_base = _ENCLAVE_BASE
        self.arrays: dict[str, TArray] = {}
        self.access_count = 0

    # -- the access path the attack observes -----------------------------
    def touch(self, vaddr: int, kind: str, site: str = "") -> int:
        """One victim memory access: translate (delivering faults to the
        attacker until permissions allow it), then access the cache.

        The access hook of every enclave array; the attacker sees no
        site, so ``site`` is ignored."""
        for _ in range(self.max_fault_retries):
            try:
                paddr = self.space.translate(vaddr, kind)
            except PageFault as fault:
                if self.fault_handler is None:
                    raise EnclaveKilled(str(fault)) from fault
                self.fault_handler(fault)
                continue
            self.cache.access_silent(paddr, self.cos)
            self.access_count += 1
            if self.env_hook is not None:
                self.env_hook(paddr, kind)
            return paddr
        raise EnclaveKilled(
            f"access at 0x{vaddr:x} still faulting after "
            f"{self.max_fault_retries} handler invocations"
        )

    # -- ExecutionContext API ---------------------------------------------
    def input_bytes(self, data: bytes, source: str = "input") -> list[int]:
        return list(data)

    def array(
        self,
        name: str,
        length: int,
        elem_size: int = 1,
        init: int = 0,
        align: int = 4096,
        misalign: int = 0,
    ) -> TArray:
        size = length * elem_size
        base = -(-self._next_base // align) * align + misalign
        self._next_base = base + size + _GUARD
        self.space.map_range(base, size)
        arr = HookedArray(self.touch, name, length, elem_size, base, init)
        self.arrays[name] = arr
        return arr
