"""In-memory span recorder and the timing wrappers of the traced run.

A span is one call into a wrapped public function of the program: its
name, start, end and the span that was open when it began (its parent).
Every span of one benchmark iteration hangs under that iteration's root
span, so the iteration index is the span's shared id.  Spans are kept in
flat typed arrays while the run lasts and written out once, at the end
(:meth:`SpanRecorder.save`).

A layer's *self time* is its spans' duration minus the part of it that
nested wrapped calls cover (:meth:`SpanRecorder.self_seconds`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

_ROOT = "iteration"


class SpanRecorder:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.names: list[str] = [_ROOT]
        self._name_index = {_ROOT: 0}
        self.parent = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.iteration = array("i")
        self._stack = [-1]
        self._iteration_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------
    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.iteration.append(self._iteration_id)
        self._stack.append(sid)
        return sid

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self._name_id(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        iteration, stack, clock = self.iteration, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            start.append(0.0)
            end.append(0.0)
            iteration.append(self._iteration_id)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return wrapper

    def begin_iteration(self, iteration_id: int) -> int:
        """Open the root span of one iteration; returns its span id."""
        self._iteration_id = iteration_id
        sid = self._open(0)
        self.start[sid] = time.perf_counter()
        return sid

    def end_iteration(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("iteration span closed out of order")

    # -- installing wrappers ------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (a plain function in the class dict)."""
        self.patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def patch_function(self, fn, name: str) -> None:
        """Wrap a module-level function under every ``repro`` module
        name that refers to it, so ``from x import fn`` call sites and
        function-local imports both reach the wrapper."""
        wrapped = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------
    def _columns(self, iteration_id: int | None):
        iters = np.array(self.iteration, dtype=np.int32)
        keep = (
            np.ones(len(iters), dtype=bool)
            if iteration_id is None
            else iters == iteration_id
        )
        return (
            np.array(self.name, dtype=np.int16)[keep],
            np.array(self.parent, dtype=np.int64),
            np.array(self.end) - np.array(self.start),
            keep,
        )

    def self_seconds(self, iteration_id: int | None = None) -> dict[str, float]:
        """Per span name: total duration minus nested wrapped calls."""
        names, parent, duration, keep = self._columns(iteration_id)
        own = duration.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], duration[nested])
        totals = np.bincount(names, weights=own[keep], minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def calls(self, iteration_id: int | None = None) -> dict[str, int]:
        """Per span name: number of spans."""
        names = self._columns(iteration_id)[0]
        counts = np.bincount(names, minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span (columnar ``.npz`` plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            iteration=np.array(self.iteration, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            name=np.array(self.name, dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            names=np.array(json.dumps(self.names)),
        )
