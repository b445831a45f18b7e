"""Lazy package exports: a package names its API without importing it.

Every package ``__init__`` in ``repro`` is a table of which submodule
defines each public name, turned into a module ``__getattr__`` (PEP 562)
by :func:`lazy_exports`::

    __getattr__, __all__ = lazy_exports(__name__, {
        "eos": ("LIQUID", "pressure"),
        "perfcheck": ("check_paths as perf_check_paths",),
        "zerotree": ("zerotree",),  # the submodule itself
    })

Importing the package imports none of its submodules.  The first access
of ``package.LIQUID`` (attribute or ``from package import LIQUID``)
imports ``package.eos`` and stores the value in the package namespace,
so later accesses never reach ``__getattr__``.  A spawned rank or
service worker therefore loads the modules it runs, not the static
analysers, performance models and dump stack that sit beside them.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """Returns ``(__getattr__, __all__)`` for ``package``.

    ``table`` maps a submodule (relative to ``package``) to the names it
    exports; ``"attr as name"`` exports ``attr`` under another name, and
    a name equal to its submodule's exports the submodule.
    """
    owner: dict[str, tuple[str, str]] = {}
    for sub, names in table.items():
        for entry in names:
            attr, _, name = entry.partition(" as ")
            owner[name or attr] = (sub, attr)

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        sub, attr = owner[name]
        module = importlib.import_module(f"{package}.{sub}")
        value = module if attr == sub else getattr(module, attr)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(owner)
