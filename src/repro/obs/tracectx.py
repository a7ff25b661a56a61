"""Cross-process trace context: one causal tree per campaign.

Span ids are pid-prefixed (``"<pid>-<n>"``), so merging the JSONL sinks
of a scheduler and its workers never collides — but before this module
the merged spans formed a *forest*: each worker's ``campaign.job`` was
a root, causally unmoored from the campaign that scheduled it.  A trace
context repairs that with two process-level fields on the obs state:

``trace_id``
    An opaque id shared by every process working on one campaign.
    Span events carry it as ``"trace"``; ``obs report --trace`` groups
    by it.
``remote_parent``
    The span id (in *another* process) that local root spans should
    attach to — the scheduler's campaign span.  Only spans opened with
    an empty thread-local stack adopt it; nested spans keep their real
    local parent.

The context crosses process boundaries two ways:

* A ``trace`` field (:func:`wire_context` payload) on every scheduler
  ``job`` lease — adopted per job via :func:`adopted`, by socket
  cluster workers and the inline runner alike, because a long-lived
  worker serves many campaigns and each job may belong to a different
  trace.
* ``REPRO_OBS_TRACE="<trace_id>:<parent_span_id>"`` in the environment
  installs a context for a whole process at import, alongside
  ``REPRO_OBS`` (:func:`repro.obs.core._activate_from_env`).

Non-perturbation: trace ids come from :func:`uuid.uuid4` (OS entropy,
``os.urandom``) — never ``random`` or numpy — so enabling tracing
leaves every seeded experiment's RNG streams, and therefore every
pinned metrics digest, byte-identical (asserted in
``tests/test_obs_integration.py``).
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.core import ENV_TRACE, STATE

__all__ = [
    "ENV_TRACE",
    "new_trace_id",
    "begin_trace",
    "set_trace",
    "clear_trace",
    "current_trace_id",
    "current_parent",
    "wire_context",
    "env_value",
    "adopted",
]


def new_trace_id() -> str:
    """A fresh opaque trace id.

    Drawn from ``uuid4`` (OS entropy), deliberately *not* from the
    ``random`` module: generating a trace id must never advance the
    seeded RNG streams the experiments measure.
    """
    return uuid.uuid4().hex[:16]


def set_trace(trace_id: Optional[str], parent: Optional[str] = None) -> None:
    """Install a trace context on this process.

    ``parent`` is the remote span id that local *root* spans should
    attach to (None for the process that owns the root span itself).
    """
    STATE.trace_id = trace_id
    STATE.remote_parent = parent


def clear_trace() -> None:
    """Drop the process trace context."""
    set_trace(None, None)


def begin_trace() -> str:
    """The current trace id, creating and installing one if absent,
    so that work started *inside* an existing trace joins it instead
    of forking a new one."""
    if STATE.trace_id is None:
        STATE.trace_id = new_trace_id()
    return STATE.trace_id


def current_trace_id() -> Optional[str]:
    """The process's trace id, or None when no trace is active."""
    return STATE.trace_id


def current_parent() -> Optional[str]:
    """The span id new child work should parent to: the innermost open
    span on this thread, else the inherited remote parent."""
    stack = getattr(STATE._local, "stack", None)
    if stack:
        return stack[-1].span_id
    return STATE.remote_parent


def wire_context(
    trace_id: Optional[str] = None, parent: Optional[str] = None
) -> Optional[dict]:
    """The JSON-safe trace payload carried on cluster lease messages:
    ``{"trace": <trace_id>, "parent": <span_id>}``, or None when there
    is nothing to propagate (keeps untraced messages byte-identical to
    the pre-trace protocol)."""
    trace_id = trace_id if trace_id is not None else STATE.trace_id
    if trace_id is None:
        return None
    context = {"trace": trace_id}
    parent = parent if parent is not None else current_parent()
    if parent is not None:
        context["parent"] = parent
    return context


def env_value(
    trace_id: Optional[str] = None, parent: Optional[str] = None
) -> Optional[str]:
    """The ``REPRO_OBS_TRACE`` encoding (``"<trace_id>:<parent>"``)
    for child processes, or None when no trace is active."""
    context = wire_context(trace_id, parent)
    if context is None:
        return None
    return f"{context['trace']}:{context.get('parent', '')}"


@contextmanager
def adopted(context: Optional[dict]) -> Iterator[None]:
    """Temporarily adopt a :func:`wire_context` payload.

    Cluster workers wrap each job in this so the job's spans join the
    scheduling campaign's tree; the scheduler wraps its own finalize
    work (shard merge) so those spans attach to the campaign span it
    manages manually.  A falsy ``context`` is a no-op, and the previous
    context is always restored — a parked worker returns to its idle
    (traceless) state between jobs.
    """
    if not context:
        yield
        return
    saved = (STATE.trace_id, STATE.remote_parent)
    STATE.trace_id = context.get("trace")
    STATE.remote_parent = context.get("parent")
    try:
        yield
    finally:
        STATE.trace_id, STATE.remote_parent = saved
