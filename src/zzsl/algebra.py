"""Creation/annihilation generators and their triple relations.

The generators are the matrix units of the distinguished row and column:
raising is e(i,0), lowering is e(0,i).  The defining triple relations are
verified exhaustively in this realization; failures are recorded as data so
the verifier can double as an oracle for formula variants.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .grading import GRADES, AlgebraParams, Grade, GradedMatrix, _Frozen, graded_bracket
from .reports import RelationFailure, RelationReport

__all__ = [
    "GeneratorId",
    "generator_ids",
    "generator_matrix",
    "verify_defining_relations",
]

# in the order of grading.GRADES
FAMILY_NAMES = ("b", "bt", "f", "ft")


class GeneratorId(_Frozen):
    """One ladder generator: operator index 1..m+n and a sign."""

    __slots__ = ("index", "sign")

    def __init__(self, index: int, sign: str) -> None:
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        if type(index) is not int or index < 1:  # a bool is not an index
            raise ValueError(f"generator index must be a positive integer, got {index!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "sign", sign)

    def check(self, params: AlgebraParams) -> None:
        if self.index > params.m + params.n:
            raise ValueError(
                f"generator index {self.index} out of range 1..{params.m + params.n}"
            )

    def family(self, params: AlgebraParams) -> str:
        """Family letter: b, bt (even) or f, ft (odd), from the generator's grade."""
        return FAMILY_NAMES[GRADES.index(self.grade(params))]

    def family_position(self, params: AlgebraParams) -> int:
        """0-based position within the generator's family."""
        fam = self.family(params)
        offsets = {"b": 0, "bt": params.m1, "f": params.m, "ft": params.m + params.n1}
        return self.index - offsets[fam] - 1

    def grade(self, params: AlgebraParams) -> Grade:
        self.check(params)
        return params.index_grade(self.index)

    def label(self, params: AlgebraParams) -> str:
        return f"{self.family(params)}{self.family_position(params) + 1}{self.sign}"

    def __str__(self) -> str:
        return f"a{self.index}{self.sign}"


def generator_ids(params: AlgebraParams) -> tuple[GeneratorId, ...]:
    """All 2(m+n) generators, index-major, raising before lowering."""
    out = []
    for i in params.operator_indices():
        out.append(GeneratorId(i, "+"))
        out.append(GeneratorId(i, "-"))
    return tuple(out)


def generator_matrix(gid: GeneratorId, params: AlgebraParams) -> GradedMatrix:
    """e(i,0) for raising, e(0,i) for lowering."""
    gid.check(params)
    if gid.sign == "+":
        return GradedMatrix.unit(params, gid.index, 0)
    return GradedMatrix.unit(params, 0, gid.index)


def rel2_terms(params: AlgebraParams, i: int, j: int, k: int) -> list[tuple[int, int]]:
    """Expected raising-side combination for [[a_i+, a_j-], a_k+].

    Returns (coefficient, operator index) pairs over the raising generators.
    """
    terms: list[tuple[int, int]] = []
    if j == k:
        terms.append((1, i))
    if i == j:
        d = params.index_grade(i)
        terms.append((1 if d.dot(d) == 0 else -1, k))
    return terms


def rel3_terms(params: AlgebraParams, i: int, j: int, k: int) -> list[tuple[int, int]]:
    """Expected lowering-side combination for [[a_i+, a_j-], a_k-]."""
    terms: list[tuple[int, int]] = []
    if i == k:
        s = (params.index_grade(i) + params.index_grade(j)).dot(params.index_grade(k))
        terms.append((-1 if s == 0 else 1, j))
    if i == j:
        d = params.index_grade(i)
        terms.append((-1 if d.dot(d) == 0 else 1, k))
    return terms


def sweep_indices(params: AlgebraParams) -> list[tuple[int, ...]]:
    """Every pair (i, j), then every triple (i, j, k), of operator indices."""
    idx = params.operator_indices()
    return [(i, j) for i in idx for j in idx] + [
        (i, j, k) for i in idx for j in idx for k in idx
    ]


# Failure tags of a pair check and of a triple check, in recording order.
RELATION_TAGS = {2: ("rel1+", "rel1-"), 3: ("rel2", "rel3")}


def checks_at(indices: Sequence[tuple[int, ...]]) -> int:
    """Checks counted at these indices: one per pair, two per triple."""
    return sum(len(idx) - 1 for idx in indices)


def relation_failures(
    params: AlgebraParams,
    plus: Sequence,
    minus: Sequence,
    indices: Iterable[tuple[int, ...]],
) -> Iterator[RelationFailure]:
    """Yield the failures of the triple relations of one realization at the
    given indices, in the order of ``indices``: the one sweep engine.

    ``plus[i - 1]`` and ``minus[i - 1]`` realize a_i^+ and a_i^- (matrix
    units or Fock operators), bracketed by ``graded_bracket``.  A pair (i, j)
    asks [a_i^+, a_j^+] = 0 (rel1+) and [a_i^-, a_j^-] = 0 (rel1-); a triple
    (i, j, k) compares [[a_i^+, a_j^-], a_k^+] with ``rel2_terms`` (rel2) and
    [[a_i^+, a_j^-], a_k^-] with ``rel3_terms`` (rel3).  Each bracket is
    computed only when the sweep reaches it, so a caller that needs only the
    first failure stops the sweep there.  Only the current (i, j)'s inner
    bracket is kept: every caller groups its triples by (i, j).  A residual
    subtracts each expected ``coeff * a_t`` from its fresh bracket in place.
    """
    inner_at = None
    for idx in indices:
        if len(idx) == 2:
            i, j = idx
            for tag, ops in zip(RELATION_TAGS[2], (plus, minus)):
                res = graded_bracket(ops[i - 1], ops[j - 1])
                if not res.is_zero:
                    yield RelationFailure(tag, idx, res.to_json())
            continue
        i, j, k = idx
        if inner_at != (i, j):
            inner_at, bij = (i, j), graded_bracket(plus[i - 1], minus[j - 1])
        for tag, ops, terms in zip(RELATION_TAGS[3], (plus, minus), (rel2_terms, rel3_terms)):
            res = graded_bracket(bij, ops[k - 1])
            for coeff, t in terms(params, i, j, k):
                ops[t - 1]._add_into(res._entries, -coeff)
            if not res.is_zero:
                yield RelationFailure(tag, idx, res.to_json())


def relation_report(
    params: AlgebraParams,
    label: str,
    plus: Sequence,
    minus: Sequence,
    indices: Sequence[tuple[int, ...]],
) -> RelationReport:
    """The list of every failure the sweep engine ``relation_failures``
    yields at these indices, as a report of ``checks_at(indices)`` checks."""
    failures = list(relation_failures(params, plus, minus, indices))
    return RelationReport(params.as_tuple(), label, checks_at(indices), failures)


def verify_defining_relations(params: AlgebraParams) -> RelationReport:
    """Check all triple relations of the generators in the matrix realization.

    One pair check per (i, j) covers both signs of the vanishing bracket;
    the two triple families contribute (m+n)**3 checks each.
    """
    plus, minus = (
        [generator_matrix(GeneratorId(i, sign), params) for i in params.operator_indices()]
        for sign in "+-"
    )
    return relation_report(params, "defining-relations", plus, minus, sweep_indices(params))
