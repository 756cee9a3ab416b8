"""Self-tests of the benchmark (not of zzsl).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import grids  # noqa: E402
import operations  # noqa: E402
import tracing  # noqa: E402
from zzsl import cli, fock, radicals  # noqa: E402

EXPECTED = json.loads((run.BENCH_DIR / "expected.json").read_text())
OUT = run.OUT_DIR / "selftest.out"

# Cheap operations, taken from each workload's grid, that reach every layer
# the workload is named for in tracing.LAYER_TARGETS.
SMOKE = {
    "verify-cli": ["cli verify --params 1,0,2,1 --p 1..3 --format json"],
    "fock-deep": [
        "representation 2,0,1,1 p=5",
        "family MixA2 2,0,1,1 p=5",
        "discrimination 2,0,1,1 p=3",
    ],
    "spectrum-export": [
        "cli spectrum --params 1,0,1,0 --p 2 --eps 1 --reading graded --format json",
        "cli export --params 1,1,1,1 --p 6 --basis orthonormal",
    ],
}


def smoke_ops(workload: str) -> list[tuple]:
    by_key = {grids.op_key(op): op for op in grids.grid(workload)}
    return [by_key[key] for key in SMOKE[workload]]


def run_ops(ops, expected=EXPECTED, tracer=None) -> run.Tally:
    run.OUT_DIR.mkdir(exist_ok=True)
    caches = list(tracing.find_caches().values())
    try:
        return run.run_passes(ops, 0, expected, caches, OUT, tracer)
    finally:
        OUT.unlink(missing_ok=True)


class GridTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for workload in grids.WORKLOADS:
            self.assertEqual(grids.operation_list(workload, 7), grids.operation_list(workload, 7))

    def test_other_seed_same_multiset_other_order(self):
        for workload in grids.WORKLOADS:
            a, b = grids.operation_list(workload, 1), grids.operation_list(workload, 2)
            self.assertEqual(Counter(a), Counter(b))
            self.assertNotEqual(a, b)

    def test_every_operation_has_a_digest(self):
        for workload in grids.WORKLOADS:
            for op in grids.grid(workload):
                self.assertIn(grids.op_key(op), EXPECTED["digests"])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_the_benchmark_file(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(grids.WORKLOADS))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(tracing.LAYER_TARGETS))
        tally = run_ops(smoke_ops("spectrum-export"))
        metrics = run.end_to_end(tally, setup_s=0.1)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {name: unit for name, (_, unit) in metrics.items()})


class CacheTest(unittest.TestCase):
    def test_scan_finds_and_clears_every_cache(self):
        fock.enumerate_basis(fock.AlgebraParams(1, 0, 1, 0), 2)
        fock.ladder_operators(fock.AlgebraParams(1, 0, 1, 0), 2)
        radicals.normalize_radical(12)
        caches = tracing.find_caches()
        self.assertLessEqual({"enumerate_basis", "ladder_operators", "normalize_radical"}, set(caches))
        for cache in caches.values():
            cache.cache_clear()
            self.assertEqual(cache.cache_info().currsize, 0)


class OracleTest(unittest.TestCase):
    SPECTRUM = "cli spectrum --params 1,0,1,0 --p 2 --eps 1 --reading graded --format json"

    def op(self):
        return smoke_ops("spectrum-export")[0]

    def test_untouched_output_passes(self):
        tally = run_ops([self.op()])
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_tampered_digest_fails(self):
        expected = dict(EXPECTED, digests=dict(EXPECTED["digests"]))
        expected["digests"][self.SPECTRUM] = "0" * 64
        tally = run_ops([self.op()], expected)
        self.assertGreater(tally.failed / tally.attempted, 0)
        self.assertIn("digest", tally.problems[0])

    def test_flipped_residual_fails(self):
        original = cli.ladder_residual

        def flipped(params, p, energies, index, sign, reading):
            return original(params, p, energies, index, sign, "literal")

        cli.ladder_residual = flipped
        try:
            tally = run_ops([self.op()])
        finally:
            cli.ladder_residual = original
        self.assertGreater(tally.failed / tally.attempted, 0)
        self.assertIn("graded-reading ladder residual nonzero", tally.problems[0])


class TracingTest(unittest.TestCase):
    def test_every_layer_metric_nonzero_on_its_workload(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        caches = list(tracing.find_caches().values())
        for workload in grids.WORKLOADS:
            try:
                _, tallies, metrics = run.traced_run(smoke_ops(workload), 0, EXPECTED, caches, OUT)
            finally:
                OUT.unlink(missing_ok=True)
            self.assertEqual(sum(t.failed for t in tallies), 0, [t.problems for t in tallies])
            self.assertEqual(set(metrics), set(tracing.LAYER_TARGETS))
            named = [m for m, (workloads, _) in tracing.LAYER_TARGETS.items() if workload in workloads]
            self.assertTrue(named)
            for metric in named:
                self.assertGreater(metrics[metric][0], 0, f"{metric} on {workload}")

    def test_wrappers_cover_every_namespace_and_keep_cache_clear(self):
        import zzsl
        from zzsl import algebra, statistics

        originals = {
            (statistics, "ladder_operators"): fock.ladder_operators,
            (statistics, "enumerate_basis"): fock.enumerate_basis,
            (cli, "operator_matrix"): fock.operator_matrix,
            (cli, "verify_representation"): fock.verify_representation,
            (algebra, "graded_bracket"): algebra.graded_bracket,
            (fock, "spanning_rank"): fock.spanning_rank,
            (zzsl, "relation_suite"): statistics.relation_suite,
        }
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (module, name), original in originals.items():
                self.assertIsNot(getattr(module, name), original, f"{module.__name__}.{name}")
            statistics.enumerate_basis(fock.AlgebraParams(1, 0, 1, 0), 2)
            statistics.enumerate_basis.cache_clear()
            self.assertEqual(fock.enumerate_basis.cache_info().currsize, 0)
        finally:
            tracer.uninstall()
        for (module, name), original in originals.items():
            self.assertIs(getattr(module, name), original)

    def test_traced_run_leaves_untraced_path_unpatched(self):
        before = tracing.binding_snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertNotEqual(tracing.binding_snapshot(), before)
            run_ops(smoke_ops("spectrum-export"), tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.binding_snapshot(), before)

        seen = []
        real_execute = operations.execute

        def probe(op, out_path):
            seen.append(tracing.binding_snapshot() == before)
            return real_execute(op, out_path)

        operations.execute = probe
        try:
            run_ops(smoke_ops("spectrum-export"))
        finally:
            operations.execute = real_execute
        self.assertEqual(seen, [True, True])


if __name__ == "__main__":
    unittest.main()
