"""Export lists: every name a module lists in ``__all__`` is defined there,
so ``from zzsl import *`` and its per-module forms do not break, every name
the package exports is listed by the module that defines it, and no module
lists a name the package does not export."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import subprocess
import sys
import types

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


_EXPORTS = [
    "AlgebraParams", "BASIS_KINDS", "FAMILIES", "FT_CORRECTED", "FTildeVariant", "FockBasis",
    "GRADES", "GeneratorId", "Grade", "GradedMatrix", "HAMILTONIAN_READINGS", "RadicalSum",
    "RationalRowSpace", "SparseOperator", "axiom_report", "closed_form_dimension", "dimension",
    "enumerate_basis", "ft_variant_discrimination", "ft_variants", "generator_ids",
    "generator_matrix", "graded_bracket", "hamiltonian", "ladder_operators", "ladder_residual",
    "normalize_radical", "occupancy_report", "operator_matrix", "order_one_defining_comparison",
    "relation_suite", "single_quantum_state", "spanning_rank", "spectrum",
    "verify_defining_relations", "verify_representation",
]


def test_the_package_exports_its_api_and_no_submodule():
    assert sorted(zzsl.__all__) == _EXPORTS
    assert not [name for name in zzsl.__all__ if isinstance(getattr(zzsl, name), types.ModuleType)]
    assert not set(zzsl.__all__) & {name.split(".")[1] for name in _MODULES}


def test_every_package_export_is_listed_where_it_is_defined():
    defined = {name: _defined_names(importlib.import_module(name)) for name in _MODULES}
    unlisted = []
    for attr in zzsl.__all__:
        homes = [name for name in _MODULES if attr in defined[name]]
        assert len(homes) == 1, f"zzsl.{attr} is defined in {homes}, not in one module"
        if attr not in getattr(importlib.import_module(homes[0]), "__all__", []):
            unlisted.append(f"{homes[0]}.{attr}")
    assert not unlisted, f"exported by zzsl but missing from their module's __all__: {unlisted}"


def test_every_module_export_is_a_package_export():
    """The module ``__all__`` lists are the one declaration of the API, so a
    name listed by a module but not re-exported by the package is a second list."""
    module_only = [
        f"{name}.{attr}"
        for name in _MODULES
        for attr in getattr(importlib.import_module(name), "__all__", [])
        if attr not in zzsl.__all__
    ]
    assert not module_only, f"listed in a module's __all__ but not exported by zzsl: {module_only}"


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


def test_the_sources_parse_as_python_3_10():
    """``requires-python = ">=3.10"``: no package or test module uses syntax
    from a later version, such as ``except*``."""
    package, tests = pathlib.Path(zzsl.__file__).parent, pathlib.Path(__file__).parent
    sources = [*package.glob("*.py"), *tests.glob("*.py")]
    assert package / "cli.py" in sources and tests / "conftest.py" in sources
    for path in sorted(sources):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_importing_the_package_and_its_cli_loads_neither_dataclasses_nor_inspect():
    """Startup: ``import zzsl, zzsl.cli`` in a fresh isolated interpreter
    imports neither module, which together made up most of the import time."""
    src = str(pathlib.Path(zzsl.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import zzsl, zzsl.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"
