"""Run every workload on ten seeds plus one traced run each, and print the
baseline tables of RESULTS.md as Markdown.

From the repository root (about 25 minutes on two cores):

    python3 perfbench/record.py > baseline.md

Spread is the distance between the first and third quartile of the ten
values, as a share of their median.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = range(101, 111)
SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from grids import WORKLOADS

    results = {w: [] for w in WORKLOADS}
    for seed in SEEDS:  # round robin, so slow spells of the host hit every workload
        for workload in WORKLOADS:
            results[workload].append(run(workload, seed, 0))
    print(f"Ten runs per workload (seeds {SEEDS.start}..{SEEDS.stop - 1}), --seconds {SECONDS}.\n")
    for workload, rows in results.items():
        attempted = sum(r["attempted"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        print(f"**{workload}**: {attempted} operations, {failed} failed, "
              f"failed_ops.ratio {failed / attempted:.4f}\n")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, first in rows[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"| {name} | {first['unit']} | {median:.5g} | {q1:.5g} | {q3:.5g} | "
                  f"{(q3 - q1) / median:.3f} |")
        print()
    traced = {w: run(w, SEEDS.start, 1)["metrics"] for w in WORKLOADS}
    print(f"One traced run per workload (seed {SEEDS.start}); values per traced pass.\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, first in traced[WORKLOADS[0]].items():
        cells = " | ".join(f"{traced[w][name]['value']:.5g}" for w in WORKLOADS)
        print(f"| {name} | {first['unit']} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
