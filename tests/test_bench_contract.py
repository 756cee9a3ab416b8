"""The per-layer tracer of the benchmark (perfbench/tracing.py) wraps zzsl
entry points it names by module and attribute path; a rename or a method
moved to a base class would break traced runs, so every name must resolve."""

import sys
from pathlib import Path

import zzsl.cli  # noqa: F401  (loads every zzsl module the tracer names)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_traced_name_resolves():
    entries = tracing.SPANNED + tracing.COUNTED + (tracing.MATMUL,)
    unresolved = []
    for module, path, _ in entries:
        try:
            _, _, original = tracing._resolve(module, path)
        except (KeyError, AttributeError) as exc:
            unresolved.append(f"{module}.{path}: {exc!r}")
            continue
        assert callable(original), f"{module}.{path}"
    assert not unresolved
