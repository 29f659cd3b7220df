"""The exported names: what ``__all__`` lists must exist."""

from __future__ import annotations

import importlib
import pkgutil

import verisemble


def test_every_exported_name_resolves():
    """A deletion that leaves its name in an ``__all__`` fails here, in the
    package or in any of its modules."""
    modules = [verisemble] + [
        importlib.import_module(f"verisemble.{info.name}")
        for info in pkgutil.iter_modules(verisemble.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 5 and not stale, stale
