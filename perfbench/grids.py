"""Fixed operation grids of the three workloads and their seeded order.

Only the standard library is imported here, so the set-up probe can time
``import zzsl`` plus the grid build without paying for anything else.

An operation is a tuple ``(kind, args)``:

* ``("cli", argv)`` runs ``zzsl.cli.parse_and_run(argv + ["--output", path])``;
* ``("representation", (params, p))`` runs ``verify_representation``;
* ``("family", (params, p, family))`` runs ``relation_suite`` for one
  statistics family;
* ``("discrimination", (params, p))`` runs ``ft_variant_discrimination`` and
  renders the report to JSON.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("verify-cli", "fock-deep", "spectrum-export")
FAMILIES = ("A-stat", "A1-f", "A1-ft", "MixA1", "MixA2")

# One energy list per m (= n) for the spectrum command.
ENERGIES = {1: "1", 2: "1,3/2", 4: "1,3/2,2,5/3"}


def _params_text(params: tuple[int, int, int, int]) -> str:
    return ",".join(str(v) for v in params)


def _verify_cli_grid() -> list[tuple]:
    compositions = [c for c in itertools.product(range(5), repeat=4) if sum(c) == 4]
    points = compositions + [(2, 1, 2, 1)]
    return [
        ("cli", ("verify", "--params", _params_text(c), "--p", "1..3", "--format", "json"))
        for c in points
    ]


def _fock_deep_grid() -> list[tuple]:
    points = (
        [((1, 1, 1, 1), p) for p in range(6, 11)]
        + [((2, 0, 1, 1), p) for p in range(5, 9)]
        + [((1, 1, 2, 2), p) for p in (3, 4)]
        + [((2, 2, 2, 2), p) for p in (3, 4)]
    )
    discrimination = [((1, 1, 1, 1), p) for p in (3, 4)] + [((2, 0, 1, 1), p) for p in (3, 4)]
    ops = []
    for point in points:
        ops.append(("representation", point))
        ops.extend(("family", point + (family,)) for family in FAMILIES)
    return ops + [("discrimination", point) for point in discrimination]


def _spectrum_export_grid() -> list[tuple]:
    ops: list[tuple] = []
    spectra = [(c, p) for c in ((1, 0, 1, 0), (1, 1, 1, 1), (2, 0, 1, 1), (2, 0, 2, 0))
               for p in range(1, 9)] + [((2, 2, 2, 2), 3)]
    for params, p in spectra:
        for reading in ("graded", "literal"):
            ops.append(("cli", (
                "spectrum", "--params", _params_text(params), "--p", str(p),
                "--eps", ENERGIES[params[0] + params[1]], "--reading", reading,
                "--format", "json",
            )))
    exports = [((2, 2, 2, 2), p) for p in (3, 4)] + [((1, 1, 1, 1), p) for p in range(6, 11)]
    for params, p in exports:
        for basis in ("orthonormal", "unnormalized"):
            ops.append(("cli", (
                "export", "--params", _params_text(params), "--p", str(p), "--basis", basis,
            )))
    for p in range(1, 7):
        ops.append(("cli", ("occupancy", "--params", "2,2,2,2", "--p", str(p), "--format", "json")))
        ops.append(("cli", ("dim", "--params", "2,2,2,2", "--p", f"1..{p}", "--format", "json")))
    return ops


_GRIDS = {
    "verify-cli": _verify_cli_grid,
    "fock-deep": _fock_deep_grid,
    "spectrum-export": _spectrum_export_grid,
}


def grid(workload: str) -> list[tuple]:
    """The fixed operation grid of one workload, in canonical order."""
    try:
        return _GRIDS[workload]()
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}") from None


def operation_list(workload: str, seed: int) -> list[tuple]:
    """The workload's grid in the order given by ``seed``; one pass runs it once."""
    ops = grid(workload)
    random.Random(seed).shuffle(ops)
    return ops


def op_key(op: tuple) -> str:
    """Stable name of an operation, used to look up its expected digest."""
    kind, args = op
    if kind == "cli":
        return "cli " + " ".join(args)
    params, p, *family = args
    return " ".join([kind, *family, _params_text(params), f"p={p}"])
