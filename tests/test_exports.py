"""The package's exports resolve: every name in a module's __all__ exists
there, and condisp.__all__ lists exactly the names the package re-exports,
so that a deletion cannot leave a stale export behind."""

from __future__ import annotations

import importlib
import types

import pytest

import condisp

MODULES = ("numerics", "hilbert", "model", "propagate", "gate", "cat", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"condisp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from condisp.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_lists_exactly_its_reexports():
    reexports = {n for n, v in vars(condisp).items()
                 if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(condisp.__all__) == sorted(reexports | {"__version__"})
    homes = set().union(*(importlib.import_module(f"condisp.{m}").__all__ for m in MODULES))
    assert reexports <= homes
