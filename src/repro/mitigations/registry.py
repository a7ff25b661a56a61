"""Site-keyed mitigation registry: plan entries -> table wrappers.

The apply layer (:mod:`repro.mitigations.apply`) does not hard-code
which wrapper implements which mitigation; it asks this registry.  Each
wrapper is a drop-in table replacement (``get``/``set``/``add`` with the
``site=`` keyword plus ``snapshot``/``fill`` passthroughs) constructed
around the *original* backing :class:`~repro.exec.arrays.TArray`, so a
kernel patched per-site keeps byte-identical table contents — and
therefore byte-identical output.
"""

from __future__ import annotations

from typing import Callable

from repro.exec.arrays import TArray
from repro.mitigations.masking import MaskedTable
from repro.mitigations.oblivious import ObliviousTable
from repro.mitigations.plan import (
    MITIGATION_MASK,
    MITIGATION_OBLIVIOUS,
    MITIGATION_PRELOAD,
    MitigationPlan,
    SitePlan,
)
from repro.mitigations.preload import PreloadedTable


WrapperFactory = Callable[[TArray, SitePlan], object]

#: mitigation kind -> wrapper factory.  ``none``/``guard`` entries are
#: deliberately absent: they patch nothing at the table layer.
MITIGATION_WRAPPERS: dict[str, WrapperFactory] = {
    MITIGATION_OBLIVIOUS: lambda arr, sp: ObliviousTable(arr, site=sp.site),
    MITIGATION_MASK: lambda arr, sp: MaskedTable(
        arr, sp.params["mask_index_bits"], site=sp.site
    ),
    MITIGATION_PRELOAD: lambda arr, sp: PreloadedTable(arr, site=sp.site),
}


def make_wrapper(array: TArray, site_plan: SitePlan):
    """Instantiate the wrapper a plan entry calls for."""
    try:
        factory = MITIGATION_WRAPPERS[site_plan.mitigation]
    except KeyError:
        raise ValueError(
            f"mitigation {site_plan.mitigation!r} has no table wrapper "
            f"(registered: {sorted(MITIGATION_WRAPPERS)})"
        ) from None
    return factory(array, site_plan)


class MitigationRegistry:
    """Per-site lookup used while patching a kernel.

    Collects the *wrapping* entries of a plan (``mask``/``preload``/
    ``oblivious``); ``wrap`` hands back either the mitigated wrapper or
    the original table, so kernel factories can route every site through
    one call.
    """

    def __init__(self) -> None:
        self._by_site: dict[str, SitePlan] = {}

    @classmethod
    def from_plan(cls, plan: MitigationPlan) -> "MitigationRegistry":
        reg = cls()
        for sp in plan.mitigated_sites():
            reg.register(sp)
        return reg

    def register(self, site_plan: SitePlan) -> None:
        self._by_site[site_plan.site] = site_plan

    def sites(self) -> list[str]:
        return sorted(self._by_site)

    def plan_for(self, site: str) -> SitePlan:
        return self._by_site[site]

    def __contains__(self, site: str) -> bool:
        return site in self._by_site

    def wrap(self, site: str, array: TArray):
        """The mitigated wrapper for ``site``, or ``array`` unchanged."""
        sp = self._by_site.get(site)
        if sp is None:
            return array
        return make_wrapper(array, sp)
