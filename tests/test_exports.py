"""Every name a module exports through ``__all__`` exists, so a removed
function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import wdro

MODULES = ["wdro"] + [
    f"wdro.{info.name}" for info in pkgutil.iter_modules(wdro.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
