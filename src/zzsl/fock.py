"""Fock modules of order p: basis enumeration, ladder actions, verification.

A basis state records the occupation of every orbital; the total never
exceeds the order p.  Every ladder operator is one occupation-shift rule:
it moves one orbital's occupation by one, with a square-root weight on the
orthonormal basis (or its integer conjugate on the unnormalized monomial
basis) and a fermionic sign.  Dropping any state pushed past total p
realizes the quotient by the invariant subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .algebra import (
    GeneratorId,
    checks_at,
    generator_ids,
    matrix_unit,
    relation_report,
    sweep_indices,
)
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

    A theta-slot f-tilde operator still declares its generator's grade,
    although its entries, which put a quantum into a theta slot, carry
    another degree.  The discrimination brackets it with that declared sign,
    and the discrimination digests in ``perfbench/expected.json`` (and in
    ``tests/``) pin the failure records that sign gives.
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
            if type(occ) is not int or occ < 0:  # a bool is not an occupation
                raise ValueError(f"bosonic occupations must be nonnegative integers, got {occ!r}")
        for bit in self.theta + self.lam:
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError(f"fermionic occupations must be bits, got {bit!r}")

    @classmethod
    def vacuum(cls, params: AlgebraParams) -> "FockState":
        return cls.from_occupations(params, (0,) * (params.m + params.n))

    @classmethod
    def from_occupations(cls, params: AlgebraParams, occ) -> "FockState":
        """Split a flat occupation sequence, ordered as ``occupations()``."""
        m1, m, k = params.m1, params.m, params.m + params.n1
        return cls(tuple(occ[:m1]), tuple(occ[m1:m]), tuple(occ[m:k]), tuple(occ[k:]))

    @property
    def total(self) -> int:
        """Total number of quanta R."""
        return sum(self.r) + sum(self.l) + sum(self.theta) + sum(self.lam)

    def occupations(self) -> tuple[int, ...]:
        return self.r + self.l + self.theta + self.lam

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
        # keyed by occupation tuple, in basis order
        self._index = {s.occupations(): pos for pos, s in enumerate(states)}

    def index_of(self, state: FockState) -> int:
        pos = self._index.get(state.occupations())
        if pos is None or self.states[pos] != state:
            raise ValueError(f"state {state} is not in the order-{self.p} basis")
        return pos

    # The states are fixed by params and p, so two bases with both equal
    # are the same space (operators built on either may be combined).
    def __eq__(self, other) -> bool:
        if not isinstance(other, FockBasis):
            return NotImplemented
        return self.params == other.params and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.params, self.p))

    def __len__(self) -> int:
        return len(self.states)

    size = property(__len__)

    def index_grade(self, i: int) -> Grade:
        """Degree of the i-th basis state, which grades operators entry by entry."""
        return self.states[i].degree(self.params)

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


def _check_order(params: AlgebraParams, p: int) -> None:
    """Reject an order that is not a positive integer, or whose module's
    closed-form dimension exceeds ``MAX_BASIS_DIMENSION``."""
    expected = closed_form_dimension(params, p)
    if expected > MAX_BASIS_DIMENSION:
        raise ValueError(
            f"Fock module of order {p} for {params.as_tuple()} has dimension {expected}, "
            f"above the enumeration limit {MAX_BASIS_DIMENSION}"
        )


# typed: a bool order must miss the entry cached for the int 1
@lru_cache(maxsize=256, typed=True)
def enumerate_basis(params: AlgebraParams, p: int) -> FockBasis:
    """All states with total <= p, sorted by (total, occupation tuple).

    The vacuum is always first.  p = 0 is rejected: the representations are
    labelled by p = 1, 2, ...  A module whose closed-form dimension exceeds
    ``MAX_BASIS_DIMENSION`` is rejected before any state is built.
    """
    _check_order(params, p)
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


def _check_positive(p: int) -> None:
    """The one test that an order is a positive integer (a bool is not)."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"order p must be a positive integer, got {p!r}")


def closed_form_dimension(params: AlgebraParams, p: int) -> int:
    """Independent count: choose k of the n fermionic orbitals, then weakly
    compose at most p-k bosonic quanta into m slots."""
    _check_positive(p)
    m, n = params.m, params.n
    return sum(comb(n, k) * comb(p - k + m, m) for k in range(min(n, p) + 1))


def _check_order_range(params: AlgebraParams, lo: int, hi: int) -> None:
    """Reject an order range before any work: at its top module first
    (``_check_order``), then when its modules, which the ``enumerate_basis``
    cache may hold all at once, exceed ``MAX_BASIS_DIMENSION`` states in all.

    The sum of ``closed_form_dimension`` over p = lo..hi takes O(n) terms
    whatever the length of the range: for k fermions the bosonic counts
    C(j+m, m), j = p-k, telescope by the hockey-stick identity
    sum_{j<=b} C(j+m, m) = C(b+m+1, m+1).
    """
    _check_order(params, hi)
    m, n = params.m, params.n
    total = sum(
        comb(n, k) * (comb(hi - k + m + 1, m + 1) - comb(max(lo - k, 0) + m, m + 1))
        for k in range(min(n, hi) + 1)
    )
    if total > MAX_BASIS_DIMENSION:
        raise ValueError(
            f"Fock modules of orders {lo}..{hi} for {params.as_tuple()} have {total} states "
            f"in all, above the enumeration limit {MAX_BASIS_DIMENSION}"
        )


def norm_factor(state: FockState, p: int) -> RadicalSum:
    """Scalar relating the unnormalized monomial vector to the unit vector."""
    _check_positive(p)
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
    return FockState.from_occupations(params, occ)


def _ladder_rule(
    gid: GeneratorId,
    params: AlgebraParams,
    p: int,
    basis_kind: str,
    ft_variant: FTildeVariant,
):
    """Validate one generator and return its action on occupation tuples.

    Every ladder generator reads the occupation of its own orbital (slot
    ``read``) and shifts slot ``write`` by ``delta``: ``write = read`` and
    ``delta = +-1``, except that the theta-slot reading of an f-tilde rule
    writes theta_k with ``delta = +1``, and has no term when theta_k does not
    exist.  The returned ``act(occ, R)`` gives ``(coefficient, target)`` for
    the flat occupation tuple ``occ`` of total ``R``, or None.

    With ``occ`` the occupation of the operator's orbital and R the total,
    raising has weight occ+1 (even orbital) or 1-occ (odd orbital) and room
    p-R; lowering has weight occ and room p-R+1.  The term is dropped when
    the weight or the room is 0, or when the target breaks the Pauli bounds
    (odd occupations at most 1, total at most p).  The orthonormal
    coefficient is sign*sqrt(weight*room); the unnormalized one, the integer
    conjugate, is sign when raising and sign*weight*room when lowering.  The
    sign, on the odd orbitals only, is (-1)**(sum l) times (-1)**(own-family
    prefix before the orbital): the quanta the operator passes in the fixed
    monomial order.
    """
    _check_kind(basis_kind)
    if basis_kind == "unnormalized" and ft_variant != FT_CORRECTED:
        raise ValueError("slot variants are defined on the orthonormal basis only")
    fam = gid.family(params)
    m1, m, n1 = params.m1, params.m, params.n1
    read = write = gid.index - 1
    raising = gid.sign == "+"
    odd = read >= m
    if fam == "ft" and (ft_variant.plus_slot if raising else ft_variant.minus_slot) == "theta":
        k = read - m - n1
        if k >= n1:
            return lambda occ, R: None
        write = m + k
    delta = 1 if raising or write != read else -1
    # fermionic sign: the quanta on the l orbitals and on the own family's
    # orbitals before the read slot
    own = m if fam == "f" else m + n1
    orthonormal = basis_kind == "orthonormal"

    def act(occ: tuple[int, ...], R: int):
        occ_read = occ[read]
        if raising:
            weight, room = (1 - occ_read if odd else occ_read + 1), p - R
        else:
            weight, room = occ_read, p - R + 1
        new = occ[write] + delta
        if not weight or not room or R + delta > p or (write >= m and new > 1):
            return None
        sign = -1 if odd and (sum(occ[m1:m]) + sum(occ[own:read])) % 2 else 1
        if orthonormal:
            coeff = RadicalSum.sqrt(weight * room) * sign
        else:
            coeff = sign if raising else sign * weight * room
        return coeff, occ[:write] + (new,) + occ[write + 1 :]

    return act


class SparseOperator(SparseMatrix):
    """Operator on an ordered Fock basis, built as ``SparseOperator(basis,
    entries, grade=None)``.

    A ladder operator declares its generator's grade, which products and
    brackets propagate.  A state vector is an operator whose entries all lie
    in column 0.
    """

    __slots__ = ()

    @property
    def basis(self) -> FockBasis:
        return self._space

    # Bound in this class too, so operator products can be wrapped on their own.
    __matmul__ = SparseMatrix.__matmul__

    # ------------------------------------------------------------ inspection

    @property
    def dimension(self) -> int:
        return len(self._space)

    @property
    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self._entries)

    def diagonal(self) -> list[RadicalSum]:
        return [self.entry(i, i) for i in range(self.dimension)]

    # ------------------------------------------------------------ arithmetic

    def __pow__(self, exponent: int) -> "SparseOperator":
        if type(exponent) is not int or exponent < 1:  # a bool is not an exponent
            raise ValueError("exponent must be a positive integer")
        out = self
        for _ in range(exponent - 1):
            out = out @ self
        return out

    def commutator(self, other: "SparseOperator") -> "SparseOperator":
        return self @ other - other @ self

    def to_json(self) -> dict:
        return {
            "params": list(self._space.params.as_tuple()),
            "p": self._space.p,
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
    act = _ladder_rule(gid, params, p, basis_kind, ft_variant)
    index = basis._index
    entries: dict[tuple[int, int], int | RadicalSum] = {}
    for col, occ in enumerate(index):
        term = act(occ, sum(occ))
        if term is not None:
            entries[(index[term[1]], col)] = term[0]
    return SparseOperator(basis, entries, gid.grade(params))


@lru_cache(maxsize=256, typed=True)
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
    """[a_i^-, a_j^+]|0> = p delta_ij |0>, with the bracket applied to the
    vacuum vector: a_i^-(a_j^+|0>) -/+ a_j^+(a_i^-|0>), the sign as in
    ``graded_bracket``."""
    vac = SparseOperator(enumerate_basis(params, p), {(0, 0): 1})
    plus, minus = ladder_operators(params, p, basis_kind, ft_variant)
    up = [op @ vac for op in plus]
    down = [op @ vac for op in minus]
    failures: list[RelationFailure] = []
    checked = 0
    for i in range(len(minus)):
        for j in range(len(plus)):
            checked += 1
            there, back = minus[i] @ up[j], plus[j] @ down[i]
            image = there + back if minus[i].grade.dot(plus[j].grade) else there - back
            if image != (vac * p if i == j else vac * 0):
                residual = {str(row): c.to_json() for row, _, c in image.items()}
                failures.append(RelationFailure("vacuum", (i + 1, j + 1), residual))
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
    space.add({0: 1})
    frontier = [SparseOperator(basis, {(0, 0): 1})]
    while frontier:
        fresh = []
        for vec in frontier:
            for op in plus:
                image = op @ vec
                # unnormalized entries are ints, which the row space takes as they are
                if image.nnz and space.add({i: c for (i, _), c in image._entries.items()}):
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


def _orthonormal_is_conjugate(params: AlgebraParams, p: int) -> bool:
    """Whether every orthonormal ladder operator is N^-1 U N for its
    unnormalized partner U, with N the diagonal of norm factors.

    Holds when both declare the same grade and have the same nonzero keys,
    and ``O[i,j] * n_i == U[i,j] * n_j`` exactly with ``n = norm_factor``.
    """
    n = [norm_factor(state, p) for state in enumerate_basis(params, p)]
    kinds = (itertools.chain(*ladder_operators(params, p, kind)) for kind in BASIS_KINDS)
    for ortho, unnorm in zip(*kinds):
        o, u = ortho._entries, unnorm._entries
        if ortho.grade != unnorm.grade or o.keys() != u.keys():
            return False
        if any(o[key] * n[key[0]] != u[key] * n[key[1]] for key in o):
            return False
    return True


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

    The orthonormal sweep of the corrected variant is derived from the
    unnormalized one when ``_orthonormal_is_conjugate`` holds: then every
    orthonormal operator is N^-1 U N for its unnormalized partner, both
    declare the same grades, so every relation residual, a polynomial in the
    operators, is the unnormalized residual conjugated by N, and vanishes
    exactly where it does.  The orthonormal sweep then runs only at the
    indices where the unnormalized one failed, and counts the checks of the
    whole sweep.  Otherwise it runs in full.
    """
    indices = sweep_indices(params)
    ortho_indices = indices
    corrected = ft_variant == FT_CORRECTED
    if corrected:
        plus, minus = ladder_operators(params, p, "unnormalized")
        unnorm = relation_report(params, "relations-unnormalized", plus, minus, indices)
        if _orthonormal_is_conjugate(params, p):
            ortho_indices = list(dict.fromkeys(f.indices for f in unnorm.failures))
    plus, minus = ladder_operators(params, p, "orthonormal", ft_variant)
    ortho = relation_report(params, "relations-orthonormal", plus, minus, ortho_indices)
    ortho.checked = checks_at(indices)
    suites = [ortho, _vacuum_suite(params, p, "orthonormal", ft_variant)]
    if corrected:
        suites += [unnorm, _vacuum_suite(params, p, "unnormalized", ft_variant)]
    suites.append(_adjointness_suite(params, p, ft_variant))
    if corrected:
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
