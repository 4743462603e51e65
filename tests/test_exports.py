"""Every name a module exports resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import enqode


def test_every_exported_name_resolves():
    names = ["enqode"] + [f"enqode.{m.name}" for m in pkgutil.iter_modules(enqode.__path__)]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            getattr(module, export)  # AttributeError names the stale export
            checked += 1
    assert checked >= len(enqode.__all__)
