"""Benchmark of zzsl: verdict latency and check throughput on three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one client, one process, one thread.  Every
operation starts cold (all lru caches in zzsl are cleared first), its wall
time is one sample, and its output is checked against ``expected.json`` and
against independent checks (see ``operations.py``).  The seed permutes a
fixed grid; a run repeats whole passes over it while the next pass still
fits in ``--seconds`` (at least one), so every run sees the same multiset.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half and prints
the per-layer metrics (per traced pass) plus the tracing overhead.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import exp, lgamma, log, log1p
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# Runs in a fresh interpreter: time ``import zzsl`` and the grid build.
_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import zzsl, zzsl.cli, grids
grids.operation_list(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import zzsl from this checkout's source tree and nowhere else."""
    if not (SRC / "zzsl" / "__init__.py").is_file():
        _fail(f"no zzsl source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import zzsl

    if Path(zzsl.__file__).resolve().parent != SRC / "zzsl":
        _fail(f"imported zzsl from {zzsl.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing zzsl and building the grid."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


@dataclass
class Tally:
    """What the passes of one run did."""

    samples: list[list[float]]
    pass_walls: list[float] = field(default_factory=list)
    pass_checks: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    def per_second(self, counts) -> float:
        """Median over passes of a per-pass count divided by the pass's wall time."""
        return statistics.median(c / w for c, w in zip(counts, self.pass_walls))


def run_passes(ops, seconds: float, expected: dict, caches, out_path: Path, tracer=None) -> Tally:
    """Whole passes over ``ops`` while the next one still fits in ``seconds``."""
    from grids import op_key
    from operations import check, execute

    keys = frozenset(expected["keys"])
    digests = expected["digests"]
    names = [op_key(op) for op in ops]
    tally = Tally([[] for _ in ops])
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        checks = 0
        for index, op in enumerate(ops):
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            if tracer is not None:
                tracer.start_op(tally.attempted)
            began = perf_counter()
            try:
                outcome = execute(op, out_path)
            except Exception as exc:  # an operation that raises is a failed operation
                outcome, problems = None, [f"raised {exc!r}"]
            took = perf_counter() - began
            if tracer is not None:
                tracer.end_op()
            tally.samples[index].append(took)
            tally.attempted += 1
            if outcome is not None:
                checked, problems = check(op, outcome, digests.get(names[index]), keys)
                checks += checked
            if problems:
                tally.failed += 1
                tally.problems.append(f"{names[index]}: {'; '.join(problems)}")
        now = perf_counter()
        tally.pass_walls.append(now - pass_start)
        tally.pass_checks.append(checks)
        if now - start + tally.pass_walls[-1] > seconds:
            return tally


def traced_run(ops, seconds: float, expected: dict, caches, out_path: Path):
    """Untraced passes, then traced passes, each for half of ``seconds``.

    Returns the tracer, both tallies and the per-layer metrics, including
    the traced-to-untraced wall time ratio per pass.
    """
    from tracing import Tracer

    plain = run_passes(ops, seconds / 2, expected, caches, out_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, seconds / 2, expected, caches, out_path, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced.passes)
    overhead = statistics.median(traced.pass_walls) / statistics.median(plain.pass_walls)
    metrics["tracing.overhead_ratio"] = (overhead, "ratio")
    return tracer, [plain, traced], metrics


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics, so a
    single noisy sample next to the quantile moves the estimate less than it
    moves the plain order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    steps = 100 * n  # midpoint rule over (0, 1)
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += exp(log_norm + (a - 1) * log(t) + (b - 1) * log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency(tally: Tally) -> tuple[float, float, int, int]:
    """(p50, tail, tail percentile, sample count) over per-operation medians.

    One value per grid operation, so the percentiles do not depend on how
    many passes fit in the run.  The tail is the highest percentile that
    leaves at least TAIL_BEYOND samples above it.
    """
    per_op = [statistics.median(s) for s in tally.samples]
    n = len(per_op)
    q = max(n - TAIL_BEYOND, 1) / n
    return harrell_davis(per_op, 0.5), harrell_davis(per_op, q), int(100 * q), n


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    p50, tail, _, _ = latency(tally)
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s.p50": (p50, "s"),
        "verdict_s.tail": (tail, "s"),
        "ops_per_s": (tally.per_second([len(tally.samples)] * tally.passes), "1/s"),
        "checks_per_s": (tally.per_second(tally.pass_checks), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import grids
    from tracing import find_caches

    if args.workload not in grids.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {grids.WORKLOADS}")
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    ops = grids.operation_list(args.workload, args.seed)
    caches = list(find_caches().values())
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-{args.seed}.out"

    if args.trace:
        tracer, tallies, metrics = traced_run(ops, args.seconds, expected, caches, out_path)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    else:
        setup_s = measure_setup(args.workload, args.seed)
        tally = run_passes(ops, args.seconds, expected, caches, out_path)
        metrics = end_to_end(tally, setup_s)
        _, _, percentile, n = latency(tally)
        print(f"# verdict_s.tail is p{percentile} of {n} per-operation medians "
              f"({tally.passes} pass(es), {tally.attempted} operations)")
        tallies = [tally]
    out_path.unlink(missing_ok=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        for line in tally.problems:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"# failed_ops.ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
