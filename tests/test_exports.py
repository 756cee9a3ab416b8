"""Export lists: every name a module lists in ``__all__`` is defined there,
so ``from zzsl import *`` and its per-module forms do not break, and every
name the package exports is listed by the module that defines it."""

import ast
import importlib
import inspect
import pkgutil
import sys

import pytest

import zzsl

_MODULES = sorted(f"zzsl.{info.name}" for info in pkgutil.iter_modules(zzsl.__path__))


@pytest.mark.parametrize("name", ["zzsl", *_MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _defined_names(module):
    """Names bound at the top level of ``module``'s source, not imported."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_package_export_is_listed_where_it_is_defined():
    defined = {name: _defined_names(importlib.import_module(name)) for name in _MODULES}
    unlisted = []
    for attr in zzsl.__all__:
        homes = [name for name in _MODULES if attr in defined[name]]
        assert len(homes) == 1, f"zzsl.{attr} is defined in {homes}, not in one module"
        if attr not in getattr(importlib.import_module(homes[0]), "__all__", []):
            unlisted.append(f"{homes[0]}.{attr}")
    assert not unlisted, f"exported by zzsl but missing from their module's __all__: {unlisted}"


def test_the_runtime_imports_only_the_standard_library():
    """Every ``import`` and absolute ``from`` in the package names a stdlib module."""
    foreign = []
    for name in ["zzsl", *_MODULES]:
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{name}: {top}" for top in tops if top not in sys.stdlib_module_names]
    assert not foreign, f"imports outside the standard library: {foreign}"
