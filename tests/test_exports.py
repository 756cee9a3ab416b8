"""Export lists: every name a module lists in ``__all__`` is defined there,
so ``from zzsl import *`` and its per-module forms do not break."""

import importlib
import pkgutil

import pytest

import zzsl

_MODULES = sorted(f"zzsl.{info.name}" for info in pkgutil.iter_modules(zzsl.__path__))


@pytest.mark.parametrize("name", ["zzsl", *_MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
