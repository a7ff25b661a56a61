"""Extracting the attacker's view from a taint trace.

The cache channel shows *which cache line* the victim touched, never the
offset within it (Section IV-A): the attacker's observation of an access
to address ``a`` is ``a >> 6``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.exec.context import TracingContext
from repro.exec.events import MemoryAccess

CACHE_LINE = 64


def replay_lines(
    records: Iterable[MemoryAccess],
    sites: Optional[Iterable[str]] = None,
    kind: Optional[str] = None,
) -> list[int]:
    """Cache-line observations from access records, in program order.

    Takes a live run's accesses or stored records alike: the site/kind
    filter, then the ``>> 6`` attacker view.
    """
    site_set = None if sites is None else set(sites)
    return [
        record.address >> 6
        for record in records
        if (site_set is None or record.site in site_set)
        and (kind is None or record.kind == kind)
    ]


def observed_lines(
    ctx: TracingContext, site: str, kind: Optional[str] = None
) -> list[int]:
    """Cache-line indices of all accesses at ``site``, in program order.

    This is the idealised (noise-free) channel used by the survey; the
    end-to-end SGX attack of Section V produces the same shape of data
    through the simulated Prime+Probe channel.
    """
    return replay_lines(ctx.tainted_accesses(), (site,), kind)
