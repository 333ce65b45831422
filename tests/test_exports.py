"""Every name a module exports resolves, so a deleted function cannot leave
a stale entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import unruhcap

MODULES = ["unruhcap"] + [
    f"unruhcap.{info.name}"
    for info in pkgutil.iter_modules(unruhcap.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

