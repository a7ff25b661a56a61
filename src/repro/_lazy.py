"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package that re-exports names from its submodules imports every one
of them on ``import package`` — a cluster worker would load the report
renderers to run an ``lzw_recovery`` job.  :func:`lazy_exports` defers
each submodule to the first access of one of its names instead.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for a package whose public
    names are ``exports`` (defining module -> names).  A name is
    imported from its module on first access, then cached in
    ``namespace`` (the package's ``globals()``)."""
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__, list(owner)
