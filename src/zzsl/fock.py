"""Fock modules of order p: basis enumeration, ladder actions, verification.

A basis state records the occupation of every orbital; the total never
exceeds the order p.  Ladder operators act through the explicit
transformation rules of the orthonormal basis, or through their integer
conjugates on the unnormalized monomial basis, where dropping any state
pushed past total p realizes the quotient by the invariant subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .algebra import GeneratorId, generator_ids, matrix_unit, relation_report, sweep_indices
from .grading import AlgebraParams, Grade
from .linalg import RationalRowSpace, SparseMatrix
from .radicals import RadicalSum
from .reports import (
    DiscriminationReport,
    RelationFailure,
    RelationReport,
    RepresentationReport,
    VariantOutcome,
)

__all__ = [
    "BASIS_KINDS",
    "MAX_BASIS_DIMENSION",
    "FockState",
    "FockBasis",
    "SparseOperator",
    "FTildeVariant",
    "FT_CORRECTED",
    "ft_variants",
    "enumerate_basis",
    "dimension",
    "closed_form_dimension",
    "norm_factor",
    "single_quantum_state",
    "apply_generator",
    "operator_matrix",
    "ladder_operators",
    "verify_representation",
    "ft_variant_discrimination",
    "order_one_defining_comparison",
]

BASIS_KINDS = ("orthonormal", "unnormalized")

# Largest basis ``enumerate_basis`` will build; past it the states alone
# would not fit in memory, so the request fails before enumerating anything.
MAX_BASIS_DIMENSION = 10**6


def _check_kind(basis_kind: str) -> None:
    if basis_kind not in BASIS_KINDS:
        raise ValueError(f"basis_kind must be one of {BASIS_KINDS}, got {basis_kind!r}")


@dataclass(frozen=True)
class FTildeVariant:
    """Which occupation slot the two f-tilde rules write to.

    The representation formulas are unambiguous except for the target kets of
    the f-tilde pair, where a lambda-slot and a theta-slot reading both parse.
    Only the lambda/lambda combination satisfies the defining relations; the
    others are kept so the verifier can demonstrate the discrimination.
    """

    plus_slot: str = "lambda"
    minus_slot: str = "lambda"

    def __post_init__(self) -> None:
        for slot in (self.plus_slot, self.minus_slot):
            if slot not in ("lambda", "theta"):
                raise ValueError(f"slot must be 'lambda' or 'theta', got {slot!r}")

    @property
    def label(self) -> str:
        return f"ft+->{self.plus_slot},ft-->{self.minus_slot}"


FT_CORRECTED = FTildeVariant()


def ft_variants() -> tuple[FTildeVariant, ...]:
    """All four slot combinations, the relation-satisfying one first."""
    return (
        FT_CORRECTED,
        FTildeVariant("lambda", "theta"),
        FTildeVariant("theta", "lambda"),
        FTildeVariant("theta", "theta"),
    )


@dataclass(frozen=True)
class FockState:
    """Occupation record: bosonic counts r, l and fermionic bits theta, lam."""

    r: tuple[int, ...]
    l: tuple[int, ...]
    theta: tuple[int, ...]
    lam: tuple[int, ...]

    def __post_init__(self) -> None:
        for occ in self.r + self.l:
            if not isinstance(occ, int) or occ < 0:
                raise ValueError(f"bosonic occupations must be nonnegative integers, got {occ!r}")
        for bit in self.theta + self.lam:
            if bit not in (0, 1):
                raise ValueError(f"fermionic occupations must be bits, got {bit!r}")

    @classmethod
    def vacuum(cls, params: AlgebraParams) -> "FockState":
        return cls((0,) * params.m1, (0,) * params.m2, (0,) * params.n1, (0,) * params.n2)

    @property
    def total(self) -> int:
        """Total number of quanta R."""
        return sum(self.r) + sum(self.l) + sum(self.theta) + sum(self.lam)

    def occupations(self) -> tuple[int, ...]:
        return self.r + self.l + self.theta + self.lam

    def params(self) -> AlgebraParams:
        return AlgebraParams(len(self.r), len(self.l), len(self.theta), len(self.lam))

    def occupation(self, index: int, params: AlgebraParams) -> int:
        """Occupation of the orbital of operator index (1-based)."""
        if not 1 <= index <= params.m + params.n:
            raise ValueError(f"operator index {index} out of range")
        return self.occupations()[index - 1]

    def degree(self, params: AlgebraParams) -> Grade:
        """Mod-2 sum of the grades of all occupied quanta."""
        l_sum = sum(self.l)
        return Grade((l_sum + sum(self.theta)) % 2, (l_sum + sum(self.lam)) % 2)

    def to_json(self) -> dict:
        return {
            "r": list(self.r),
            "l": list(self.l),
            "theta": list(self.theta),
            "lambda": list(self.lam),
        }

    def __str__(self) -> str:
        return f"(r={self.r}, l={self.l}, theta={self.theta}, lambda={self.lam})"


class FockBasis:
    """All admissible states of an order-p module, in graded lexicographic order."""

    __slots__ = ("params", "p", "states", "_index")

    def __init__(self, params: AlgebraParams, p: int, states: tuple[FockState, ...]):
        self.params = params
        self.p = p
        self.states = states
        self._index = {s: pos for pos, s in enumerate(states)}

    def index_of(self, state: FockState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ValueError(f"state {state} is not in the order-{self.p} basis") from None

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    @property
    def vacuum(self) -> FockState:
        return self.states[0]

    def to_json(self) -> list[dict]:
        return [{"index": pos, **s.to_json()} for pos, s in enumerate(self.states)]

    def __repr__(self) -> str:
        return f"FockBasis(params={self.params}, p={self.p}, dim={len(self)})"


def _counts(length: int, cap: int):
    if length == 0:
        yield ()
        return
    for first in range(cap + 1):
        for rest in _counts(length - 1, cap - first):
            yield (first,) + rest


def _bits(length: int, cap: int):
    for combo in itertools.product((0, 1), repeat=length):
        if sum(combo) <= cap:
            yield combo


@lru_cache(maxsize=256)
def enumerate_basis(params: AlgebraParams, p: int) -> FockBasis:
    """All states with total <= p, sorted by (total, occupation tuple).

    The vacuum is always first.  p = 0 is rejected: the representations are
    labelled by p = 1, 2, ...  A module whose closed-form dimension exceeds
    ``MAX_BASIS_DIMENSION`` is rejected before any state is built.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"order p must be a positive integer, got {p!r}")
    expected = closed_form_dimension(params, p)
    if expected > MAX_BASIS_DIMENSION:
        raise ValueError(
            f"Fock module of order {p} for {params.as_tuple()} has dimension {expected}, "
            f"above the enumeration limit {MAX_BASIS_DIMENSION}"
        )
    states: list[FockState] = []
    for r in _counts(params.m1, p):
        left = p - sum(r)
        for l in _counts(params.m2, left):
            left2 = left - sum(l)
            for th in _bits(params.n1, left2):
                left3 = left2 - sum(th)
                for la in _bits(params.n2, left3):
                    states.append(FockState(r, l, th, la))
    states.sort(key=lambda s: (s.total, s.occupations()))
    return FockBasis(params, p, tuple(states))


def dimension(params: AlgebraParams, p: int) -> int:
    """Number of basis states, by enumeration."""
    return len(enumerate_basis(params, p))


def closed_form_dimension(params: AlgebraParams, p: int) -> int:
    """Independent count: choose k of the n fermionic orbitals, then weakly
    compose at most p-k bosonic quanta into m slots."""
    if p < 1:
        raise ValueError(f"order p must be a positive integer, got {p!r}")
    m, n = params.m, params.n
    return sum(comb(n, k) * comb(p - k + m, m) for k in range(min(n, p) + 1))


def norm_factor(state: FockState, p: int) -> RadicalSum:
    """Scalar relating the unnormalized monomial vector to the unit vector."""
    R = state.total
    if R > p:
        raise ValueError(f"state with total {R} is inadmissible at order {p}")
    denom = factorial(p) * prod(factorial(occ) for occ in state.r + state.l)
    return RadicalSum.sqrt_fraction(Fraction(factorial(p - R), denom))


def single_quantum_state(params: AlgebraParams, index: int) -> FockState:
    """The state with exactly one quantum, on the orbital of operator ``index``."""
    if not 1 <= index <= params.m + params.n:
        raise ValueError(f"operator index {index} out of range")
    occ = [0] * (params.m + params.n)
    occ[index - 1] = 1
    m1, m2, n1 = params.m1, params.m2, params.n1
    m = params.m
    return FockState(
        tuple(occ[:m1]),
        tuple(occ[m1:m]),
        tuple(occ[m : m + n1]),
        tuple(occ[m + n1 :]),
    )


def _replace(tup: tuple[int, ...], pos: int, value: int) -> tuple[int, ...]:
    return tup[:pos] + (value,) + tup[pos + 1 :]


def apply_generator(
    gid: GeneratorId,
    state: FockState,
    p: int,
    basis_kind: str = "orthonormal",
    ft_variant: FTildeVariant = FT_CORRECTED,
) -> list[tuple[RadicalSum, FockState]]:
    """Action of one ladder generator on one basis state.

    Orthonormal kind: raising carries sqrt((occ+1)(p-R)) for the bosonic
    families and (1-occ)*sign*sqrt(p-R) for the fermionic ones; lowering
    carries sqrt(occ(p-R+1)) and occ*sign*sqrt(p-R+1).  The sign is set by
    the quanta the operator passes in the fixed monomial order: (-1)**(sum l)
    times (-1)**(own-family prefix before the target slot).

    Unnormalized kind: the integer conjugates -- raising coefficient 1 (the
    state is dropped outright at R = p, realizing the quotient), lowering
    coefficient occ*(p-R+1), same signs.

    Returns at most one term; the empty list encodes the zero vector.
    """
    _check_kind(basis_kind)
    params = state.params()
    gid.check(params)
    R = state.total
    if R > p:
        raise ValueError(f"state with total {R} is inadmissible at order {p}")
    if basis_kind == "unnormalized" and ft_variant != FT_CORRECTED:
        raise ValueError("slot variants are defined on the orthonormal basis only")

    fam = gid.family(params)
    k = gid.family_position(params)
    raising = gid.sign == "+"

    if fam in ("b", "bt"):
        occs = state.r if fam == "b" else state.l
        occ = occs[k]
        if raising:
            if R == p:
                return []
            if basis_kind == "orthonormal":
                coeff = RadicalSum.sqrt((occ + 1) * (p - R))
            else:
                coeff = RadicalSum(1)
            new = _replace(occs, k, occ + 1)
        else:
            if occ == 0:
                return []
            if basis_kind == "orthonormal":
                coeff = RadicalSum.sqrt(occ * (p - R + 1))
            else:
                coeff = RadicalSum(occ * (p - R + 1))
            new = _replace(occs, k, occ - 1)
        target = (
            FockState(new, state.l, state.theta, state.lam)
            if fam == "b"
            else FockState(state.r, new, state.theta, state.lam)
        )
        return [(coeff, target)]

    # fermionic families: sign from sum(l) plus own-family prefix
    own_bits = state.theta if fam == "f" else state.lam
    sign = -1 if (sum(state.l) + sum(own_bits[:k])) % 2 else 1

    slot = "theta" if fam == "f" else (ft_variant.plus_slot if raising else ft_variant.minus_slot)

    if fam == "ft" and slot == "theta":
        return _apply_ft_theta_slot(state, p, k, raising, sign)

    bits = state.theta if fam == "f" else state.lam
    occ = bits[k]
    if raising:
        if occ == 1 or R == p:
            return []
        if basis_kind == "orthonormal":
            coeff = RadicalSum.sqrt(p - R) * sign
        else:
            coeff = RadicalSum(sign)
        new = _replace(bits, k, 1)
    else:
        if occ == 0:
            return []
        if basis_kind == "orthonormal":
            coeff = RadicalSum.sqrt(p - R + 1) * sign
        else:
            coeff = RadicalSum(sign * (p - R + 1))
        new = _replace(bits, k, 0)
    target = (
        FockState(state.r, state.l, new, state.lam)
        if fam == "f"
        else FockState(state.r, state.l, state.theta, new)
    )
    return [(coeff, target)]


def _apply_ft_theta_slot(
    state: FockState, p: int, k: int, raising: bool, sign: int
) -> list[tuple[RadicalSum, FockState]]:
    """The theta-slot reading of an f-tilde rule, executed as displayed.

    Coefficients still read the lambda occupations, but the target ket
    increments theta_k with lambda unchanged.  Targets outside the basis
    (missing theta slot, doubly occupied bit, or total beyond p) are dropped
    by the quotient rule.
    """
    R = state.total
    lam_occ = state.lam[k]
    if raising:
        if lam_occ == 1 or R == p:
            return []
        coeff = RadicalSum.sqrt(p - R) * sign
    else:
        if lam_occ == 0:
            return []
        coeff = RadicalSum.sqrt(p - R + 1) * sign
    if k >= len(state.theta):
        return []
    if state.theta[k] == 1:
        return []
    if R + 1 > p:
        return []
    target = FockState(state.r, state.l, _replace(state.theta, k, 1), state.lam)
    return [(coeff, target)]


class SparseOperator(SparseMatrix):
    """Operator on an ordered Fock basis, stored as (row, col, coeff) triplets.

    Carries an optional grade so graded brackets of operators can apply the
    right sign; products and brackets propagate it.
    """

    __slots__ = ("basis", "grade", "_col_map")
    _noun = "operator"
    _mismatch = "operators act on different bases"

    def __init__(
        self,
        basis: FockBasis,
        entries,
        grade: Grade | None = None,
    ) -> None:
        self._place(basis, grade)
        self._validate(entries, len(basis))

    def _place(self, basis: FockBasis, grade: Grade | None = None) -> None:
        self.basis = basis
        self.grade = grade
        self._col_map = None

    def _key(self) -> tuple[AlgebraParams, int]:
        return self.basis.params, self.basis.p

    def _like(self, entries: dict, other=None, product: bool = False) -> "SparseOperator":
        grade = self.grade
        if other is not None:
            if grade is None or other.grade is None:
                grade = None
            elif product:
                grade = grade + other.grade
            elif grade != other.grade:
                grade = None
        return SparseOperator._raw(entries, self.basis, grade)

    # Bound in this class too, so operator products can be wrapped on their own.
    __matmul__ = SparseMatrix.__matmul__

    # ------------------------------------------------------------ inspection

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self._entries)

    def diagonal(self) -> list[RadicalSum]:
        return [self.entry(i, i) for i in range(self.dimension)]

    def column(self, j: int) -> dict[int, RadicalSum]:
        if self._col_map is None:
            cols: dict[int, dict[int, RadicalSum]] = {}
            for (i, jj), c in self._entries.items():
                cols.setdefault(jj, {})[i] = c
            self._col_map = cols
        return dict(self._col_map.get(j, {}))

    # ------------------------------------------------------------ arithmetic

    def __pow__(self, exponent: int) -> "SparseOperator":
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError("exponent must be a positive integer")
        out = self
        for _ in range(exponent - 1):
            out = out @ self
        return out

    def commutator(self, other: "SparseOperator") -> "SparseOperator":
        return self @ other - other @ self

    def anticommutator(self, other: "SparseOperator") -> "SparseOperator":
        return self @ other + other @ self

    def graded_bracket(self, other: "SparseOperator") -> "SparseOperator":
        """Commutator or anticommutator according to the operators' grades."""
        self._check_same(other)
        if self.grade is None or other.grade is None:
            raise ValueError("graded bracket needs operators of known grade")
        if self.grade.dot(other.grade):
            return self.anticommutator(other)
        return self.commutator(other)

    def apply(self, vector: dict[int, RadicalSum]) -> dict[int, RadicalSum]:
        """Image of a sparse coefficient vector (index -> coefficient)."""
        out: dict[int, RadicalSum] = {}
        for j, v in vector.items():
            for i, c in self.column(j).items():
                cur = out.get(i)
                new = c * v if cur is None else cur + c * v
                if new.is_zero:
                    out.pop(i, None)
                else:
                    out[i] = new
        return out

    def to_json(self) -> dict:
        return {
            "params": list(self.basis.params.as_tuple()),
            "p": self.basis.p,
            "shape": [self.dimension, self.dimension],
            "entries": self._entries_json(),
        }

    def __repr__(self) -> str:
        return f"SparseOperator(dim={self.dimension}, nnz={self.nnz}, grade={self.grade})"


def operator_matrix(
    gid: GeneratorId,
    params: AlgebraParams,
    p: int,
    basis_kind: str = "orthonormal",
    ft_variant: FTildeVariant = FT_CORRECTED,
) -> SparseOperator:
    """Matrix of one generator: column j is its action on the j-th basis state."""
    basis = enumerate_basis(params, p)
    entries: dict[tuple[int, int], RadicalSum] = {}
    for col, state in enumerate(basis.states):
        for coeff, target in apply_generator(gid, state, p, basis_kind, ft_variant):
            entries[(basis.index_of(target), col)] = coeff
    return SparseOperator._raw(entries, basis, gid.grade(params))


@lru_cache(maxsize=256)
def ladder_operators(
    params: AlgebraParams,
    p: int,
    basis_kind: str = "orthonormal",
    ft_variant: FTildeVariant = FT_CORRECTED,
) -> tuple[tuple[SparseOperator, ...], tuple[SparseOperator, ...]]:
    """(raising, lowering) operator matrices for indices 1..m+n."""
    plus = tuple(
        operator_matrix(GeneratorId(i, "+"), params, p, basis_kind, ft_variant)
        for i in params.operator_indices()
    )
    minus = tuple(
        operator_matrix(GeneratorId(i, "-"), params, p, basis_kind, ft_variant)
        for i in params.operator_indices()
    )
    return plus, minus


def _vacuum_suite(
    params: AlgebraParams,
    p: int,
    basis_kind: str,
    ft_variant: FTildeVariant,
) -> RelationReport:
    plus, minus = ladder_operators(params, p, basis_kind, ft_variant)
    K = params.m + params.n
    failures: list[RelationFailure] = []
    checked = 0
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            checked += 1
            col = minus[i - 1].graded_bracket(plus[j - 1]).column(0)
            expected = {0: RadicalSum(p)} if i == j else {}
            if col != expected:
                residual = {str(row): c.to_json() for row, c in sorted(col.items())}
                failures.append(RelationFailure("vacuum", (i, j), residual))
    return RelationReport(params.as_tuple(), f"vacuum-{basis_kind}", checked, failures)


def _adjointness_suite(params: AlgebraParams, p: int, ft_variant: FTildeVariant) -> RelationReport:
    plus, minus = ladder_operators(params, p, "orthonormal", ft_variant)
    failures: list[RelationFailure] = []
    checked = 0
    for i, (up, down) in enumerate(zip(plus, minus), start=1):
        checked += 1
        diff = up.transpose() - down
        if not diff.is_zero:
            failures.append(RelationFailure("adjoint", (i,), diff.to_json()))
    return RelationReport(params.as_tuple(), "adjointness", checked, failures)


def spanning_rank(params: AlgebraParams, p: int) -> tuple[int, int]:
    """Exact rank of iterated raising operators applied to the vacuum vs dim.

    Runs on the integer-coefficient (unnormalized) matrices; the orthonormal
    matrices are their conjugates by the diagonal of norm factors, which
    leaves the rank unchanged.
    """
    basis = enumerate_basis(params, p)
    dim = len(basis)
    plus, _ = ladder_operators(params, p, "unnormalized")
    space = RationalRowSpace(dim)
    start = {0: RadicalSum(1)}
    space.add({0: 1})
    frontier = [start]
    while frontier:
        fresh = []
        for vec in frontier:
            for op in plus:
                image = op.apply(vec)
                if image and space.add({i: c.as_fraction() for i, c in image.items()}):
                    fresh.append(image)
        frontier = fresh
    return space.rank, dim


def _spanning_suite(params: AlgebraParams, p: int) -> RelationReport:
    rank, dim = spanning_rank(params, p)
    failures = []
    if rank != dim:
        failures.append(
            RelationFailure("spanning", (), {"rank": rank, "dimension": dim})
        )
    return RelationReport(params.as_tuple(), "spanning", 1, failures)


def verify_representation(
    params: AlgebraParams,
    p: int,
    ft_variant: FTildeVariant = FT_CORRECTED,
) -> RepresentationReport:
    """Machine-check that the ladder matrices represent the algebra.

    Runs, with exact arithmetic: the triple-relation sweep and the vacuum
    conditions on both basis kinds, adjointness on the orthonormal kind
    (transposition, since all entries are real radicals), and the spanning
    check from the vacuum.  Slot variants other than the corrected one only
    exist on the orthonormal basis, so they skip the unnormalized suites.
    """
    suites: list[RelationReport] = []
    kinds = BASIS_KINDS if ft_variant == FT_CORRECTED else ("orthonormal",)
    for kind in kinds:
        plus, minus = ladder_operators(params, p, kind, ft_variant)
        suites.append(relation_report(
            params, f"relations-{kind}", plus, minus, SparseOperator.graded_bracket,
            sweep_indices(params),
        ))
        suites.append(_vacuum_suite(params, p, kind, ft_variant))
    suites.append(_adjointness_suite(params, p, ft_variant))
    if ft_variant == FT_CORRECTED:
        suites.append(_spanning_suite(params, p))
    return RepresentationReport(params.as_tuple(), p, ft_variant.label, suites)


def ft_variant_discrimination(params: AlgebraParams, p: int) -> DiscriminationReport:
    """Verify all four f-tilde slot variants; only the first should pass."""
    outcomes: list[VariantOutcome] = []
    for variant in ft_variants():
        report = verify_representation(params, p, ft_variant=variant)
        first = report.first_relation_failure
        failure_json = None
        if first is not None:
            label, failure = first
            failure_json = {"suite": label, **failure.to_json()}
        outcomes.append(VariantOutcome(variant.label, report.passed, failure_json))
    return DiscriminationReport(params.as_tuple(), p, outcomes)


def order_one_defining_comparison(params: AlgebraParams) -> bool:
    """At p = 1, the ladder matrices coincide with the defining matrix units
    under the canonical identification vacuum <-> 0, one-quantum state of
    operator i <-> i."""
    basis = enumerate_basis(params, 1)
    perm = [basis.index_of(FockState.vacuum(params))]
    for i in params.operator_indices():
        perm.append(basis.index_of(single_quantum_state(params, i)))
    size = params.size
    for gid in generator_ids(params):
        op = operator_matrix(gid, params, 1, "orthonormal")
        ref = (
            matrix_unit(gid.index, 0, params)
            if gid.sign == "+"
            else matrix_unit(0, gid.index, params)
        )
        for row in range(size):
            for col in range(size):
                if op.entry(perm[row], perm[col]) != ref.entry(row, col):
                    return False
    return True
