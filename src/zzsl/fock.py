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
from functools import lru_cache
from math import comb, factorial, prod

from .algebra import (
    GeneratorId,
    checks_at,
    generator_ids,
    generator_matrix,
    relation_failures,
    relation_report,
    sweep_indices,
)
from .grading import AlgebraParams, Grade, _Frozen
from .linalg import RationalRowSpace, SparseMatrix
from .radicals import RadicalSum, exact
from .reports import (
    DiscriminationReport,
    RelationFailure,
    RelationReport,
    RepresentationReport,
    VariantOutcome,
)

__all__ = [
    "BASIS_KINDS",
    "FockBasis",
    "SparseOperator",
    "FTildeVariant",
    "FT_CORRECTED",
    "ft_variants",
    "enumerate_basis",
    "dimension",
    "closed_form_dimension",
    "single_quantum_state",
    "spanning_rank",
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


class FTildeVariant(_Frozen):
    """Which occupation slot the two f-tilde rules write to.

    The representation formulas are unambiguous except for the target kets of
    the f-tilde pair, where a lambda-slot and a theta-slot reading both parse.
    Only the lambda/lambda combination satisfies the defining relations; the
    others are kept so the verifier can demonstrate the discrimination, and
    are reached only through ``operator_matrix`` and
    ``ft_variant_discrimination``.  Every other operator the package builds
    is the corrected one.

    A theta-slot f-tilde operator still declares its generator's grade,
    although its entries, which put a quantum into a theta slot, carry
    another degree.  The discrimination brackets it with that declared sign,
    and the discrimination digests in ``perfbench/expected.json`` (and in
    ``tests/``) pin the failure records that sign gives.
    """

    __slots__ = ("plus_slot", "minus_slot")

    def __init__(self, plus_slot: str = "lambda", minus_slot: str = "lambda") -> None:
        for slot in (plus_slot, minus_slot):
            if slot not in ("lambda", "theta"):
                raise ValueError(f"slot must be 'lambda' or 'theta', got {slot!r}")
        object.__setattr__(self, "plus_slot", plus_slot)
        object.__setattr__(self, "minus_slot", minus_slot)

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


def _block_lists(params: AlgebraParams, occupations) -> list[dict]:
    """The r, l, theta and lambda lists of each flat occupation tuple, as
    JSON objects: the one place that knows the block split, cut once per call."""
    m1, m, k = params.m1, params.m, params.m + params.n1
    r, l, theta, lam = slice(0, m1), slice(m1, m), slice(m, k), slice(k, None)
    return [
        {"r": list(occ[r]), "l": list(occ[l]), "theta": list(occ[theta]), "lambda": list(occ[lam])}
        for occ in occupations
    ]


class FockBasis:
    """All admissible states of an order-p module, in graded lexicographic
    order.  A state is its flat occupation tuple, ordered r, l, theta,
    lambda; ``occupations`` lists them in basis order."""

    __slots__ = ("params", "p", "occupations", "_index")

    def __init__(self, params: AlgebraParams, p: int, occupations: tuple[tuple[int, ...], ...]):
        self.params = params
        self.p = p
        self.occupations = occupations
        self._index = {occ: pos for pos, occ in enumerate(occupations)}

    def index_of(self, occ: tuple[int, ...]) -> int:
        """Position of the flat occupation tuple ``occ`` in the basis."""
        # exact ints only: (True, 0) and (1.0, 0) hash and compare equal to (1, 0)
        if type(occ) is not tuple or any(type(k) is not int for k in occ) or occ not in self._index:
            raise ValueError(f"occupation {occ!r} is not in the order-{self.p} basis")
        return self._index[occ]

    # The states are fixed by params and p, so two bases with both equal
    # are the same space (operators built on either may be combined).
    def __eq__(self, other) -> bool:
        if not isinstance(other, FockBasis):
            return NotImplemented
        return self.params == other.params and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.params, self.p))

    def __len__(self) -> int:
        return len(self.occupations)

    size = property(__len__)

    def index_grade(self, i: int) -> Grade:
        """Degree of the i-th basis state: the grades of its odd-occupied orbitals, summed."""
        if type(i) is not int or not 0 <= i < len(self):  # nor a bool
            raise ValueError(f"basis index {i!r} is not an int in 0..{len(self) - 1}")
        odd = (k for k, count in enumerate(self.occupations[i], start=1) if count % 2)
        return sum(map(self.params.index_grade, odd), Grade(0, 0))

    def to_json(self) -> list[dict]:
        blocks = _block_lists(self.params, self.occupations)
        return [{"index": pos, **state} for pos, state in enumerate(blocks)]

    def __repr__(self) -> str:
        return f"FockBasis(params={self.params}, p={self.p}, dim={len(self)})"


def _admissible_occupations(params: AlgebraParams, p: int) -> tuple[tuple[int, ...], ...]:
    """Occupation tuples with total <= p and odd orbitals at most 1, built
    one orbital at a time from the quanta left, sorted by (total, tuple).

    Each open prefix carries its total; one that reaches p is complete, so it
    is padded with zeros once instead of being copied at every later orbital.
    """
    width = params.m + params.n
    states: list[tuple[int, ...]] = []
    prefixes = [((), 0)]
    for orbital in range(width):
        cap = 1 if orbital >= params.m else p
        pad = (0,) * (width - orbital - 1)
        grown = []
        for occ, total in prefixes:
            for k in range(min(cap, p - total) + 1):
                if total + k == p:
                    states.append(occ + (k,) + pad)
                else:
                    grown.append((occ + (k,), total + k))
        prefixes = grown
    states += [occ for occ, _ in prefixes]
    states.sort(key=lambda occ: (sum(occ), occ))
    return tuple(states)


# typed: a bool order must miss the entry cached for the int 1
@lru_cache(maxsize=256, typed=True)
def enumerate_basis(params: AlgebraParams, p: int) -> FockBasis:
    """All states with total <= p, sorted by (total, occupation tuple).

    The vacuum is always first.  p = 0 is rejected: the representations are
    labelled by p = 1, 2, ...  A module whose closed-form dimension exceeds
    ``MAX_BASIS_DIMENSION`` is rejected before any state is built.
    """
    _check_order_range(params, p, p)
    return FockBasis(params, p, _admissible_occupations(params, p))


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
    """Reject an order range before any work: first when its top order is
    not a positive integer or its top module's closed-form dimension exceeds
    ``MAX_BASIS_DIMENSION``, then when its modules, which the
    ``enumerate_basis`` cache may hold all at once, exceed that many states
    in all, and last when those states, m + n occupation entries each,
    exceed 16 x ``MAX_BASIS_DIMENSION`` entries in all.  ``enumerate_basis``
    checks its one order as the range p..p.

    The sum of ``closed_form_dimension`` over p = lo..hi takes O(n) terms
    whatever the length of the range: for k fermions the bosonic counts
    C(j+m, m), j = p-k, telescope by the hockey-stick identity
    sum_{j<=b} C(j+m, m) = C(b+m+1, m+1).
    """
    top = closed_form_dimension(params, hi)
    if top > MAX_BASIS_DIMENSION:
        raise ValueError(
            f"Fock module of order {hi} for {params.as_tuple()} has dimension {top}, "
            f"above the enumeration limit {MAX_BASIS_DIMENSION}"
        )
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
    if total * (m + n) > 16 * MAX_BASIS_DIMENSION:
        raise ValueError(
            f"Fock modules of orders {lo}..{hi} for {params.as_tuple()} store {total * (m + n)} "
            f"occupation entries in all, above the storage limit {16 * MAX_BASIS_DIMENSION}"
        )


def single_quantum_state(params: AlgebraParams, index: int) -> tuple[int, ...]:
    """The flat occupation tuple with one quantum, on the orbital of operator ``index``."""
    if type(index) is not int or not 1 <= index <= params.m + params.n:  # nor a bool
        raise ValueError(f"operator index {index!r} is not an int in 1..{params.m + params.n}")
    occ = [0] * (params.m + params.n)
    occ[index - 1] = 1
    return tuple(occ)


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
    coefficient is sign*sqrt(weight*room), built once per distinct value by
    each returned ``act``; the unnormalized one, the integer conjugate, is
    sign when raising and sign*weight*room when lowering.  The sign, on the
    odd orbitals only, is (-1)**(sum l) times (-1)**(own-family prefix before
    the orbital): the quanta the operator passes in the fixed monomial order.
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
    roots: dict[int, int | RadicalSum] = {}  # sign*weight*room -> orthonormal entry

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
            key = sign * weight * room
            coeff = roots.get(key)
            if coeff is None:
                coeff = roots[key] = exact(RadicalSum.sqrt(weight * room) * sign)
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
    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self._entries)

    def diagonal(self) -> list[RadicalSum]:
        return [self.entry(i, i) for i in range(len(self._space))]

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
            "shape": [len(self._space), len(self._space)],
            "entries": self._entries_json(),
        }

    def __repr__(self) -> str:
        return f"SparseOperator(dim={len(self._space)}, nnz={self.nnz}, grade={self.grade})"


def operator_matrix(
    gid: GeneratorId,
    params: AlgebraParams,
    p: int,
    basis_kind: str = "orthonormal",
    ft_variant: FTildeVariant = FT_CORRECTED,
) -> SparseOperator:
    """Matrix of one generator: column j is its action on the j-th basis state."""
    if not isinstance(ft_variant, FTildeVariant):
        raise TypeError(f"ft_variant must be an FTildeVariant, got {ft_variant!r}")
    basis = enumerate_basis(params, p)
    act = _ladder_rule(gid, params, p, basis_kind, ft_variant)
    index = basis._index
    entries: dict[tuple[int, int], int | RadicalSum] = {}
    for col, occ in enumerate(basis.occupations):
        term = act(occ, sum(occ))
        if term is not None:
            entries[(index[term[1]], col)] = term[0]
    return SparseOperator(basis, entries, gid.grade(params))


@lru_cache(maxsize=256, typed=True)
def ladder_operators(
    params: AlgebraParams, p: int, basis_kind: str = "orthonormal"
) -> tuple[tuple[SparseOperator, ...], tuple[SparseOperator, ...]]:
    """(raising, lowering) operator matrices of the corrected f-tilde reading
    for indices 1..m+n.  The cache keys on the arguments as passed: the
    package passes all three, so each module's operators are built once.
    The kind and the order are checked even where no operator is built."""
    _check_kind(basis_kind)
    enumerate_basis(params, p)
    return tuple(
        tuple(
            operator_matrix(GeneratorId(i, sign), params, p, basis_kind)
            for i in params.operator_indices()
        )
        for sign in "+-"
    )


def _slot_variant_operators(params: AlgebraParams, p: int, ft_variant: FTildeVariant):
    """A slot variant's orthonormal (raising, lowering) operators.

    A slot variant changes only the f-tilde operators, the last n2 indices,
    so it takes the cached corrected operators before them and rebuilds the
    f-tilde ones alone through ``operator_matrix``.
    """
    shared = params.m + params.n1
    return tuple(
        ops[:shared]
        + tuple(
            operator_matrix(GeneratorId(i, sign), params, p, "orthonormal", ft_variant)
            for i in params.operator_indices()[shared:]
        )
        for ops, sign in zip(ladder_operators(params, p, "orthonormal"), "+-")
    )


def _vacuum_suite(params: AlgebraParams, p: int, basis_kind: str, plus, minus) -> RelationReport:
    """[a_i^-, a_j^+]|0> = p delta_ij |0> for the (raising, lowering)
    operators ``plus`` and ``minus`` on one basis kind, with the bracket
    applied to the vacuum vector: a_i^-(a_j^+|0>) -/+ a_j^+(a_i^-|0>), the
    sign as in ``graded_bracket``."""
    vac = SparseOperator(enumerate_basis(params, p), {(0, 0): 1})
    up = [op @ vac for op in plus]
    down = [op @ vac for op in minus]
    failures: list[RelationFailure] = []
    for i in range(len(minus)):
        for j in range(len(plus)):
            there, back = minus[i] @ up[j], plus[j] @ down[i]
            image = there + back if minus[i].grade.dot(plus[j].grade) else there - back
            if image != (vac * p if i == j else vac * 0):
                residual = {str(row): c.to_json() for row, _, c in image.items()}
                failures.append(RelationFailure("vacuum", (i + 1, j + 1), residual))
    return RelationReport(
        params.as_tuple(), f"vacuum-{basis_kind}", len(minus) * len(plus), failures
    )


def _adjointness_suite(params: AlgebraParams, plus, minus) -> RelationReport:
    """Each orthonormal a_i^- is the transpose of a_i^+."""
    failures: list[RelationFailure] = []
    for i, (up, down) in enumerate(zip(plus, minus), start=1):
        diff = up.transpose() - down
        if not diff.is_zero:
            failures.append(RelationFailure("adjoint", (i,), diff.to_json()))
    return RelationReport(params.as_tuple(), "adjointness", len(plus), failures)


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


def _orthonormal_is_conjugate(basis: FockBasis, ortho, unnorm) -> bool:
    """Whether every orthonormal operator in ``ortho`` is N^-1 U N for its
    unnormalized partner U in ``unnorm``, with N the diagonal of norm factors.

    ``ortho`` and ``unnorm`` are (raising, lowering) pairs on ``basis`` as
    ``ladder_operators`` gives them, with None where an operator was not
    built.  Partners must declare the same grade and have the same nonzero
    keys, and ``O[i,j] * n_i == U[i,j] * n_j`` must hold with n the
    norm factors.  Since every n_i > 0, that holds exactly when the
    two entries have the same sign and ``O**2 * a_i == U**2 * a_j``, with
    ``a = n**2``: for the state i of total R_i, (p - R_i)! over p! times the
    factorials of its bosonic occupations.  So no radical is multiplied.
    This is decided only for an ``int`` or one-term ``c*sqrt(s)`` entry O
    against an ``int`` entry U.  Any other entry declines: the check returns
    False and the caller runs the full orthonormal sweep.  So the check may
    decline, but it never wrongly passes.
    """
    # a_i = num[i] / (p! * den[i]): the squares compare by integer cross
    # products, in which p! cancels
    m, p = basis.params.m, basis.p
    fact = [factorial(k) for k in range(p + 1)]
    num = [fact[p - sum(occ)] for occ in basis.occupations]
    den = [prod(fact[k] for k in occ[:m]) for occ in basis.occupations]
    for o_op, u_op in zip(itertools.chain(*ortho), itertools.chain(*unnorm)):
        if o_op is None:  # not touched, like its partner
            continue
        o, u = o_op._entries, u_op._entries
        if o_op.grade != u_op.grade or o.keys() != u.keys():
            return False
        for (i, j), value in o.items():
            partner = u[i, j]
            if type(partner) is not int:
                return False
            if type(value) is int:
                square, positive = value * value, value > 0
            else:
                terms = value.terms()
                if len(terms) != 1:
                    return False
                ((radicand, coeff),) = terms.items()
                square, positive = coeff * coeff * radicand, coeff > 0
            if positive != (partner > 0) or (
                square * num[i] * den[j] != partner * partner * num[j] * den[i]
            ):
                return False
    return True


def _corrected_operators_at(params: AlgebraParams, p: int, basis_kind: str, touched: set[int]):
    """``ladder_operators`` on one basis kind, with None at the indices
    outside ``touched``; the cached pair when ``touched`` holds every index,
    else only the touched operators, built afresh."""
    indices = params.operator_indices()
    if touched.issuperset(indices):
        return ladder_operators(params, p, basis_kind)
    return tuple(
        [
            operator_matrix(GeneratorId(i, sign), params, p, basis_kind) if i in touched else None
            for i in indices
        ]
        for sign in "+-"
    )


def _corrected_relation_sweeps(
    params: AlgebraParams, p: int, indices: list[tuple[int, ...]]
) -> tuple[RelationReport, RelationReport]:
    """The unnormalized and orthonormal relation sweeps at ``indices``: the
    one route of both, for ``verify_representation`` and for a standalone
    ``statistics.relation_suite``, which reads the orthonormal one.

    Both kinds are built only at the indices the sweep touches.  The
    unnormalized sweep runs in full, in integer arithmetic.  Then
    ``_orthonormal_is_conjugate`` checks exactly, by signs and rational
    squares, that every touched orthonormal operator O is N^-1 U N for its
    unnormalized partner U, with N the diagonal of norm factors, and that
    both declare the same grade.  When it holds, every residual at these
    indices, a polynomial in the touched operators, is the unnormalized
    residual conjugated by N.  It vanishes exactly where that one does, so
    the orthonormal sweep runs only at the indices where the unnormalized
    one failed.  When the check declines, it runs in full.  Either way its
    report counts the checks of the whole sweep.
    """
    basis = enumerate_basis(params, p)  # checks the order even where nothing is built
    touched = set(itertools.chain.from_iterable(indices))
    plus, minus = _corrected_operators_at(params, p, "unnormalized", touched)
    unnorm = relation_report(params, "relations-unnormalized", plus, minus, indices)
    ortho_ops = _corrected_operators_at(params, p, "orthonormal", touched)
    ortho_indices = indices
    if _orthonormal_is_conjugate(basis, ortho_ops, (plus, minus)):
        ortho_indices = list(dict.fromkeys(f.indices for f in unnorm.failures))
    ortho = relation_report(params, "relations-orthonormal", *ortho_ops, ortho_indices)
    ortho.checked = checks_at(indices)
    return unnorm, ortho


def verify_representation(params: AlgebraParams, p: int) -> RepresentationReport:
    """Machine-check that the ladder matrices represent the algebra.

    Runs, with exact arithmetic: the triple-relation sweep and the vacuum
    conditions on both basis kinds, adjointness on the orthonormal kind
    (transposition, since all entries are real radicals), and the spanning
    check from the vacuum.

    The two sweeps take ``_corrected_relation_sweeps``, which states how the
    orthonormal one follows from the integer unnormalized one.
    """
    unnorm, ortho = _corrected_relation_sweeps(params, p, sweep_indices(params))
    ortho_ops = ladder_operators(params, p, "orthonormal")
    suites = [
        ortho,
        _vacuum_suite(params, p, "orthonormal", *ortho_ops),
        unnorm,
        _vacuum_suite(params, p, "unnormalized", *ladder_operators(params, p, "unnormalized")),
        _adjointness_suite(params, *ortho_ops),
        _spanning_suite(params, p),
    ]
    return RepresentationReport(params.as_tuple(), p, FT_CORRECTED.label, suites)


def ft_variant_discrimination(params: AlgebraParams, p: int) -> DiscriminationReport:
    """Verify all four f-tilde slot variants; only the first should pass.

    The corrected variant runs ``verify_representation`` in full, since its
    outcome needs every suite.  An outcome keeps only ``passed`` and the
    first relation failure, and a variant with any relation failure has
    ``passed = False`` whatever its other suites say.  So a theta-slot
    variant's orthonormal sweep, the first suite of its report, stops at its
    first failure, which is the record ``first_relation_failure`` would give.
    Only a variant whose sweep passes, as every variant does without an
    f-tilde orbital, runs the vacuum and adjointness suites, which then
    decide its outcome.  Its operators are the corrected ones with the
    f-tilde ones rebuilt by ``_slot_variant_operators``.
    """
    corrected = verify_representation(params, p)
    first = corrected.first_relation_failure
    failure_json = None if first is None else {"suite": first[0], **first[1].to_json()}
    outcomes = [VariantOutcome(FT_CORRECTED.label, corrected.passed, failure_json)]
    for variant in ft_variants()[1:]:
        plus, minus = _slot_variant_operators(params, p, variant)
        failure = next(relation_failures(params, plus, minus, sweep_indices(params)), None)
        if failure is None:
            passed = (
                _vacuum_suite(params, p, "orthonormal", plus, minus).passed
                and _adjointness_suite(params, plus, minus).passed
            )
            outcomes.append(VariantOutcome(variant.label, passed))
        else:
            failure_json = {"suite": "relations-orthonormal", **failure.to_json()}
            outcomes.append(VariantOutcome(variant.label, False, failure_json))
    return DiscriminationReport(params.as_tuple(), p, outcomes)


def order_one_defining_comparison(params: AlgebraParams) -> bool:
    """At p = 1, the ladder matrices coincide with the defining matrix units
    under the canonical identification vacuum <-> 0, one-quantum state of
    operator i <-> i."""
    basis = enumerate_basis(params, 1)
    perm = [basis.index_of((0,) * (params.m + params.n))]
    for i in params.operator_indices():
        perm.append(basis.index_of(single_quantum_state(params, i)))
    for gid in generator_ids(params):
        ref = generator_matrix(gid, params)._entries
        moved = SparseOperator(basis, {(perm[i], perm[j]): v for (i, j), v in ref.items()})
        if operator_matrix(gid, params, 1, "orthonormal") != moved:
            return False
    return True
