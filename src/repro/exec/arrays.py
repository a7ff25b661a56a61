"""Array abstraction shared by all execution contexts.

Compression kernels never touch raw Python lists for their significant
data structures; they allocate :class:`TArray` objects from their context.
This is what lets one kernel implementation run natively, under taint
tracing, or on the simulated SGX memory system without modification — and
it is where memory accesses (the things a cache side channel observes)
become explicit events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Union

from repro.taint.bittaint import BitTaint
from repro.taint.value import TaintedInt, taint_of, value_of

if TYPE_CHECKING:
    from repro.exec.context import TracingContext

Index = Union[int, TaintedInt]


class TArray:
    """A named, base-addressed array of fixed-size elements.

    The base class implements the fast, non-recording behaviour used by
    :class:`~repro.exec.context.NativeContext`.
    """

    __slots__ = ("name", "length", "elem_size", "base", "values")

    def __init__(
        self, name: str, length: int, elem_size: int, base: int, init: int = 0
    ) -> None:
        self.name = name
        self.length = length
        self.elem_size = elem_size
        self.base = base
        self.values: list = [init] * length

    # -- helpers -------------------------------------------------------
    def address_of(self, index: int) -> int:
        return self.base + index * self.elem_size

    def _check(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise IndexError(
                f"{self.name}[{index}] out of bounds (length {self.length})"
            )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, len={self.length}, "
            f"esize={self.elem_size}, base=0x{self.base:x})"
        )

    # -- access API ----------------------------------------------------
    # The native paths below are the innermost loop of every untraced
    # kernel run; the index unwrap and bounds check are inlined rather
    # than delegated to value_of/_check.
    def get(self, index: Index, site: str = ""):
        i = index if type(index) is int else value_of(index)
        if 0 <= i < self.length:
            return self.values[i]
        self._check(i)

    def set(self, index: Index, value, site: str = "") -> None:
        i = index if type(index) is int else value_of(index)
        if 0 <= i < self.length:
            self.values[i] = value
            return
        self._check(i)

    def add(self, index: Index, delta, site: str = "") -> None:
        """Read-modify-write (``a[i] += delta``): one instruction, one
        cache-line touch, requires write permission."""
        i = index if type(index) is int else value_of(index)
        if 0 <= i < self.length:
            self.values[i] = self.values[i] + delta
            return
        self._check(i)

    def fill(self, value) -> None:
        """Bulk initialisation; never recorded as individual accesses."""
        self.values = [value] * self.length

    def load(self, values) -> None:
        """Bulk load of constant table contents (e.g. AES T-tables);
        never recorded as individual accesses."""
        if len(values) != self.length:
            raise ValueError(
                f"load of {len(values)} values into {self.name}[{self.length}]"
            )
        self.values = list(values)

    def snapshot(self) -> list:
        """Plain-int copy of the contents (drops taint wrappers)."""
        return [v.value if type(v) is TaintedInt else v for v in self.values]

    def __getitem__(self, index: Index):
        return self.get(index)

    def __setitem__(self, index: Index, value) -> None:
        self.set(index, value)


AccessHook = Callable[[int, str, str], object]


class HookedArray(TArray):
    """Array that reports every element access to ``hook(address,
    kind, site)`` before performing it.

    ``kind`` is ``"read"``, ``"write"`` or ``"update"`` (``add``).  This
    is the array of every context that *watches* a run without tracing
    it: the simulated enclave routes each touch through page tables and
    the cache, and the Section IV observer keeps the cache lines of the
    accesses at its gadget sites.
    """

    __slots__ = ("hook",)

    def __init__(
        self,
        hook: AccessHook,
        name: str,
        length: int,
        elem_size: int,
        base: int,
        init: int = 0,
    ) -> None:
        super().__init__(name, length, elem_size, base, init)
        self.hook = hook

    def get(self, index: Index, site: str = ""):
        i = index if type(index) is int else value_of(index)
        if not 0 <= i < self.length:
            self._check(i)
        self.hook(self.base + i * self.elem_size, "read", site)
        return self.values[i]

    def set(self, index: Index, value, site: str = "") -> None:
        i = index if type(index) is int else value_of(index)
        if not 0 <= i < self.length:
            self._check(i)
        self.hook(self.base + i * self.elem_size, "write", site)
        self.values[i] = value

    def add(self, index: Index, delta, site: str = "") -> None:
        i = index if type(index) is int else value_of(index)
        if not 0 <= i < self.length:
            self._check(i)
        self.hook(self.base + i * self.elem_size, "update", site)
        self.values[i] = self.values[i] + delta


class TracingArray(TArray):
    """Array that reports taint-relevant accesses to a TracingContext.

    Only accesses involving taint (in the address or the value) are
    recorded as :class:`~repro.exec.events.MemoryAccess` events; untainted
    traffic is merely counted.  This mirrors TaintChannel's output, which
    shows the tainted instructions and elides the rest.
    """

    __slots__ = ("ctx", "_shift")

    def __init__(
        self,
        ctx: "TracingContext",
        name: str,
        length: int,
        elem_size: int,
        base: int,
        init: int = 0,
    ) -> None:
        super().__init__(name, length, elem_size, base, init)
        self.ctx = ctx
        if elem_size & (elem_size - 1) == 0:
            self._shift = elem_size.bit_length() - 1
        else:
            self._shift = -1

    def _addr_taint(self, index: Index) -> BitTaint:
        taint = taint_of(index)
        if not taint:
            return taint
        if self._shift >= 0:
            return taint.shifted(self._shift).truncated(64)
        return taint.smeared(64)

    def get(self, index: Index, site: str = ""):
        i = value_of(index)
        self._check(i)
        value = self.values[i]
        addr_taint = self._addr_taint(index)
        value_taint = taint_of(value)
        if addr_taint or value_taint or self.ctx.record_untainted_accesses:
            self.ctx.record_access(
                "read", self, index, addr_taint, value_taint, site
            )
        else:
            self.ctx.plain_accesses += 1
        return value

    def set(self, index: Index, value, site: str = "") -> None:
        i = value_of(index)
        self._check(i)
        addr_taint = self._addr_taint(index)
        value_taint = taint_of(value)
        if addr_taint or value_taint or self.ctx.record_untainted_accesses:
            self.ctx.record_access(
                "write", self, index, addr_taint, value_taint, site
            )
        else:
            self.ctx.plain_accesses += 1
        self.values[i] = value

    def add(self, index: Index, delta, site: str = "") -> None:
        i = value_of(index)
        self._check(i)
        new = self.values[i] + delta
        addr_taint = self._addr_taint(index)
        value_taint = taint_of(new)
        if addr_taint or value_taint or self.ctx.record_untainted_accesses:
            self.ctx.record_access(
                "update", self, index, addr_taint, value_taint, site
            )
        else:
            self.ctx.plain_accesses += 1
        self.values[i] = new
