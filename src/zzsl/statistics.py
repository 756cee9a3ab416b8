"""Statistics families, the Hamiltonian, ladder relations, spectra, occupancy.

The even operators (indices 1..m) obey the commutator triple relations of
A-statistics; the odd ones split into two families with the anticommutator
relations of A-superstatistics plus mixed relations between them.  All
suites evaluate the identities on the Fock operator matrices exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .algebra import RELATION_TAGS, GeneratorId, checks_at
from .fock import (
    FT_CORRECTED,
    SparseOperator,
    _block_lists,
    _corrected_relation_sweeps,
    enumerate_basis,
    ladder_operators,
)
from .grading import AlgebraParams, Grade, graded_bracket
from .radicals import RadicalSum, Rational
from .reports import OccupancyReport, RelationFailure, RelationReport, RepresentationReport

__all__ = [
    "FAMILIES",
    "HAMILTONIAN_READINGS",
    "relation_suite",
    "hamiltonian",
    "ladder_residual",
    "spectrum",
    "occupancy_report",
]

FAMILIES = ("A-stat", "A1-f", "A1-ft", "MixA1", "MixA2")
HAMILTONIAN_READINGS = ("graded", "literal")


def _energies(params: AlgebraParams, energies: Sequence[Rational]) -> tuple[Fraction, ...]:
    """The orbital energies as Fractions; operator i and its odd partner i+m
    share epsilon_i.  Each must be an exact int (not a bool) or Fraction."""
    values = tuple(energies)
    if not all(type(e) is int or isinstance(e, Fraction) for e in values):
        raise TypeError("energies must be exact rationals")
    if params.m != params.n:
        raise ValueError(
            f"energy pairing requires m = n, got m={params.m}, n={params.n}"
        )
    if len(values) != params.m:
        raise ValueError(
            f"expected {params.m} energies, got {len(values)}"
        )
    return tuple(map(Fraction, values))


# Each family is the triple-relation sweep at index blocks (I, J, K) of the
# ranges below: the pairs (i, j) of I x J and the triples (i, j, k) of
# I x J x K, in this order.  A pure family lists all its pairs before its
# triples; a mixed family follows each pair by its triples.
_FAMILY_BLOCKS = {
    "A-stat": ("pure", (("even", "even", "even"),)),
    "A1-f": ("pure", (("f", "f", "f"),)),
    "A1-ft": ("pure", (("ft", "ft", "ft"),)),
    "MixA1": ("mixed", (("f", "ft", "odd"), ("ft", "f", "odd"))),
    "MixA2": ("mixed", (("f", "f", "ft"), ("ft", "ft", "f"))),
}
_FAMILY_TAGS = {"rel1+": "pair+", "rel1-": "pair-", "rel2": "triple+", "rel3": "triple-"}


def _family_indices(family: str, params: AlgebraParams) -> list[tuple[int, ...]]:
    """The pairs and triples a family checks, in its check order."""
    m, n1, n = params.m, params.n1, params.n
    ranges = {
        "even": range(1, m + 1),
        "f": range(m + 1, m + n1 + 1),
        "ft": range(m + n1 + 1, m + n + 1),
        "odd": range(m + 1, m + n + 1),
    }
    layout, blocks = _FAMILY_BLOCKS[family]
    pairs, triples = [], []
    for I, J, K in blocks:
        for i in ranges[I]:
            for j in ranges[J]:
                pairs.append((i, j))
                triples.append([(i, j, k) for k in ranges[K]])
    if layout == "mixed":
        return [idx for pair, after in zip(pairs, triples) for idx in (pair, *after)]
    return pairs + [idx for after in triples for idx in after]


def relation_suite(
    family: str,
    params: AlgebraParams,
    p: int,
    *,
    representation: RepresentationReport | None = None,
) -> RelationReport:
    """Evaluate one family of (anti)commutator identities on the orthonormal
    Fock matrices.

    The family's checks are those of the relation sweep at
    ``_family_indices``, tagged pair+/pair-/triple+/triple-.  Given the
    ``verify_representation(params, p)`` report as ``representation``, the
    failures are read from its ``relations-orthonormal`` suite instead of
    being recomputed.  Without one, the family takes the route of
    ``verify_representation``, ``fock._corrected_relation_sweeps`` at the
    family's indices, and reads its orthonormal sweep.  Empty index ranges
    give a vacuous pass with zero checks.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    indices = _family_indices(family, params)
    if representation is None:
        sweep = _corrected_relation_sweeps(params, p, indices)[1]
    elif (representation.params, representation.p, representation.variant) != (
        params.as_tuple(), p, FT_CORRECTED.label
    ):
        raise ValueError("representation report is for other params, order or variant")
    else:
        sweep = representation.suite("relations-orthonormal")
    # the family's failures in its check order (a report's sweep covers every index)
    found = {(f.relation, f.indices): f for f in sweep.failures}
    failures = [
        found[tag, idx] for idx in indices for tag in RELATION_TAGS[len(idx)] if (tag, idx) in found
    ]
    return RelationReport(
        params.as_tuple(),
        family,
        checks_at(indices),
        [RelationFailure(_FAMILY_TAGS[f.relation], f.indices, f.residual) for f in failures],
    )


def hamiltonian(
    params: AlgebraParams,
    p: int,
    energies: Sequence[Rational],
    reading: str = "graded",
) -> SparseOperator:
    """Energy operator pairing operator i with its odd partner i+m.

    The graded reading takes the graded bracket of each pair of ladder
    operators (commutator on the even half, anticommutator on the odd half),
    which makes the ladder relations hold exactly.  The literal reading sums
    commutator plus anticommutator of the first m operators only; it is kept
    so its broken ladder relations can be demonstrated.
    """
    if reading not in HAMILTONIAN_READINGS:
        raise ValueError(f"reading must be one of {HAMILTONIAN_READINGS}")
    return _build_hamiltonian(params, p, _energies(params, energies), reading)


# One spectrum command asks for the same H once for the spectrum and once
# per ladder check; the arguments reaching here are already validated.  The
# order is checked by enumerate_basis, which a bool order reaches because the
# cache is typed.
@lru_cache(maxsize=16, typed=True)
def _build_hamiltonian(
    params: AlgebraParams, p: int, epsilons: tuple[Rational, ...], reading: str
) -> SparseOperator:
    basis = enumerate_basis(params, p)
    plus, minus = ladder_operators(params, p, "orthonormal")
    total = SparseOperator.zero(basis, Grade(0, 0))
    m = params.m
    for eps, up, down, odd_up, odd_down in zip(
        epsilons, plus[:m], minus[:m], plus[m:], minus[m:]
    ):
        if reading == "graded":
            term = graded_bracket(up, down) + graded_bracket(odd_up, odd_down)
        else:
            # [a+, a-] + {a+, a-} = 2 a+ a-
            term = (up @ down) * 2
        total = total + term * eps
    return total


def ladder_residual(
    params: AlgebraParams,
    p: int,
    energies: Sequence[Rational],
    index: int,
    sign: str = "+",
    reading: str = "graded",
) -> SparseOperator:
    """[H, a_i^sign] -/+ eps * a_i^sign; the ladder relation holds iff zero.

    The energy of index i is eps_i for i <= m and eps_(i-m) for the odd
    partners.
    """
    GeneratorId(index, sign)  # rejects a bad sign and a non-integer index
    epsilons = _energies(params, energies)
    m = params.m
    if index > 2 * m:
        raise ValueError(f"generator index {index} out of range 1..{2 * m}")
    ham = hamiltonian(params, p, epsilons, reading)
    plus, minus = ladder_operators(params, p, "orthonormal")
    op = plus[index - 1] if sign == "+" else minus[index - 1]
    eps = epsilons[(index - 1) % m]
    scale = eps if sign == "+" else -eps
    return ham.commutator(op) - op * scale


def spectrum(
    params: AlgebraParams,
    p: int,
    energies: Sequence[Rational],
    reading: str = "graded",
) -> list[tuple[RadicalSum, int]]:
    """Eigenvalues of the (diagonal) Hamiltonian with multiplicities, ascending."""
    ham = hamiltonian(params, p, energies, reading)
    if not ham.is_diagonal:
        raise ValueError("hamiltonian is not diagonal in the Fock basis")
    counts: dict[Fraction, int] = {}
    for value in ham.diagonal():
        key = value.as_fraction()
        counts[key] = counts.get(key, 0) + 1
    return [(RadicalSum(v), c) for v, c in sorted(counts.items())]


def occupancy_report(params: AlgebraParams, p: int) -> OccupancyReport:
    """Per-orbital and global occupation maxima over the order-p basis."""
    basis = enumerate_basis(params, p)
    (peak,) = _block_lists(params, [[max(column) for column in zip(*basis.occupations)]])
    return OccupancyReport(
        params.as_tuple(),
        p,
        len(basis),
        peak["r"],
        peak["l"],
        peak["theta"],
        peak["lambda"],
        max(map(sum, basis.occupations)),
    )
