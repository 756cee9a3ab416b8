"""The benchmark (perfbench/) wraps zzsl entry points it names by module and
attribute path, so every such name must resolve, and it clears the caches it
finds before each operation, so every cache must be one it can find.  Its
f-tilde discrimination operations must also match their recorded digests,
which pin the failure records of the theta-slot variants, and its own
self-test (``python3 -m unittest discover -s perfbench -p "test_*.py"``)
must pass."""

import json
import subprocess
import sys
from pathlib import Path

import zzsl.cli  # noqa: F401  (loads every zzsl module the tracer names)
from zzsl import statistics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import grids  # noqa: E402
import operations  # noqa: E402
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


def test_cleared_caches_make_a_command_cold(monkeypatch, tmp_path):
    honest = statistics.graded_bracket
    calls = []

    def counted(x, y):
        calls.append(1)
        return honest(x, y)

    monkeypatch.setattr(statistics, "graded_bracket", counted)
    argv = [
        "spectrum", "--params", "1,1,1,1", "--p", "2", "--eps", "1,3/2",
        "--format", "json", "--output", str(tmp_path / "out.json"),
    ]
    counts = []
    for _ in range(2):
        for cache in tracing.find_caches().values():
            cache.cache_clear()
        calls.clear()
        assert zzsl.cli.parse_and_run(argv) == 0
        counts.append(len(calls))
    # a cache the benchmark cannot see would leave the second run warm
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_discrimination_operations_match_the_benchmark_digests(tmp_path):
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    keys = frozenset(expected["keys"])
    ops = [op for op in grids.grid("fock-deep") if op[0] == "discrimination"]
    assert len(ops) == 4
    for op in ops:
        outcome = operations.execute(op, tmp_path / "out")
        name = grids.op_key(op)
        _, problems = operations.check(op, outcome, expected["digests"][name], keys)
        assert not problems, (name, problems)


def test_benchmark_self_test_passes():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(PERFBENCH), "-p", "test_*.py"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
