"""Every public name that the package and its modules declare resolves."""

import importlib
import inspect

import pytest

import rdpgtest

MODULES = ["embed", "harness", "io", "mmd", "model", "streams", "testing"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"rdpgtest.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    exec(f"from rdpgtest.{name} import *", {})


def test_package_exports_are_declared_by_their_modules():
    declared = {}
    for name in MODULES:
        module = importlib.import_module(f"rdpgtest.{name}")
        declared.update((entry, getattr(module, entry)) for entry in module.__all__)
    exports = {
        name: value
        for name, value in vars(rdpgtest).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exports and all(declared.get(name) is value for name, value in exports.items())
    exec("from rdpgtest import *", {})
