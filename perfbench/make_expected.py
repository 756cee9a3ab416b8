"""Write ``expected.json``: the output digest of every grid operation.

Run once, from the repository root, on the commit that defines the
baseline:

    python3 perfbench/make_expected.py

Every operation must pass its independent checks first.  JSON outputs are
digested with their dict keys restricted to the key names recorded here, so
later additive report fields leave the digests unchanged.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, OUT_DIR, import_program


def main() -> int:
    import_program()
    import grids
    import operations
    from tracing import find_caches

    caches = list(find_caches().values())
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "expected.out"
    outcomes = []
    for workload in grids.WORKLOADS:
        for op in grids.grid(workload):
            for cache in caches:
                cache.cache_clear()
            outcome = operations.execute(op, out_path)
            if outcome.exit_code != 0:
                raise SystemExit(f"{grids.op_key(op)}: exit code {outcome.exit_code}")
            operations.parse(outcome)
            outcomes.append((op, outcome))
    out_path.unlink(missing_ok=True)

    keys: set[str] = set()
    for _, outcome in outcomes:
        operations.key_names(outcome.data, keys)
    keys = frozenset(keys)
    digests = {}
    for op, outcome in outcomes:
        digests[grids.op_key(op)] = digest = operations.digest(op, outcome, keys)
        _, problems = operations.check(op, outcome, digest, keys)
        if problems:
            raise SystemExit(f"{grids.op_key(op)}: {'; '.join(problems)}")
    text = json.dumps({"keys": sorted(keys), "digests": digests}, indent=1, sort_keys=True)
    (BENCH_DIR / "expected.json").write_text(text + "\n")
    print(f"wrote {len(digests)} digests over {len(keys)} key names", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
