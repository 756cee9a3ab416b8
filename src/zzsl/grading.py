"""Z2 x Z2 degree arithmetic, block-graded matrices and bracket axioms.

The bracket on homogeneous pieces is X*Y - (-1)**(a.b) * Y*X and is extended
bilinearly over the four-component decomposition, so commutators and
anticommutators are both special cases of one operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .linalg import SparseMatrix
from .radicals import Rational, RadicalSum
from .reports import AxiomReport, CheckFailure

__all__ = [
    "Grade",
    "GRADES",
    "AlgebraParams",
    "GradedMatrix",
    "graded_bracket",
    "supertrace",
    "jacobi_residual",
    "axiom_report",
    "MAX_AXIOM_TRIPLES",
]

# Largest Jacobi sweep ``axiom_report`` will run, in basis triples (N**6 for
# N x N matrices, so N <= 21); past it the request fails before any work.
MAX_AXIOM_TRIPLES = 10**8


@dataclass(frozen=True)
class Grade:
    """One of the four degrees (0,0), (1,1), (1,0), (0,1)."""

    a1: int
    a2: int

    def __post_init__(self) -> None:
        if self.a1 not in (0, 1) or self.a2 not in (0, 1):
            raise ValueError("grade components must be bits")

    def __add__(self, other: "Grade") -> "Grade":
        return Grade((self.a1 + other.a1) % 2, (self.a2 + other.a2) % 2)

    def dot(self, other: "Grade") -> int:
        return (self.a1 * other.a1 + self.a2 * other.a2) % 2

    def sign(self, other: "Grade") -> int:
        """(-1)**(self . other), the sign twisting bracket and symmetry."""
        return -1 if self.dot(other) else 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.a1, self.a2)

    def __str__(self) -> str:
        return f"({self.a1},{self.a2})"


GRADES: tuple[Grade, ...] = (Grade(0, 0), Grade(1, 1), Grade(1, 0), Grade(0, 1))


@dataclass(frozen=True)
class AlgebraParams:
    """Block sizes (m1+1, m2 | n1, n2) of the matrix realization."""

    m1: int
    m2: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "n1", "n2"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def size(self) -> int:
        """Matrix size N = m + n + 1."""
        return self.m + self.n + 1

    def index_grade(self, i: int) -> Grade:
        """Degree d_i of row/column index i, following the block layout."""
        if not 0 <= i <= self.m + self.n:
            raise ValueError(f"index {i} out of range 0..{self.m + self.n}")
        if i <= self.m1:
            return Grade(0, 0)
        if i <= self.m:
            return Grade(1, 1)
        if i <= self.m + self.n1:
            return Grade(1, 0)
        return Grade(0, 1)

    def indices(self) -> range:
        return range(self.size)

    def operator_indices(self) -> range:
        """Generator indices 1..m+n (index 0 is the distinguished row/column)."""
        return range(1, self.m + self.n + 1)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.m1, self.m2, self.n1, self.n2)

    @classmethod
    def from_string(cls, text: str) -> "AlgebraParams":
        parts = [piece.strip() for piece in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected four comma-separated integers m1,m2,n1,n2")
        try:
            values = [int(piece) for piece in parts]
        except ValueError as exc:
            raise ValueError(f"invalid block sizes {text!r}") from exc
        return cls(*values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.as_tuple())


class GradedMatrix(SparseMatrix):
    """Square matrix over RadicalSum carrying the block grading of its algebra.

    Instances are immutable; only nonzero entries are stored.
    """

    __slots__ = ("params", "_comps")
    _mismatch = "dimension mismatch: matrices live in different algebras"

    def __init__(
        self,
        params: AlgebraParams,
        entries: Mapping[tuple[int, int], RadicalSum | Rational] | Iterable = (),
    ) -> None:
        self._place(params)
        self._validate(entries, params.size)

    def _place(self, params: AlgebraParams) -> None:
        self.params = params
        self._comps = None

    def _key(self) -> AlgebraParams:
        return self.params

    def _like(self, entries: dict, other=None, product: bool = False) -> "GradedMatrix":
        return GradedMatrix._raw(entries, self.params)

    # ------------------------------------------------------------------ build

    @classmethod
    def identity(cls, params: AlgebraParams) -> "GradedMatrix":
        one = RadicalSum(1)
        return cls._raw({(i, i): one for i in params.indices()}, params)

    @classmethod
    def unit(cls, params: AlgebraParams, i: int, j: int) -> "GradedMatrix":
        """Matrix unit with a single 1 in row i, column j."""
        n = params.size
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"index out of range for size {n}: ({i},{j})")
        return cls._raw({(i, j): RadicalSum(1)}, params)

    # ------------------------------------------------------------ inspection

    def entry_grade(self, i: int, j: int) -> Grade:
        return self.params.index_grade(i) + self.params.index_grade(j)

    def _components(self) -> list[tuple[Grade, "GradedMatrix"]]:
        """Nonzero homogeneous components as (grade, matrix) pairs, by grade."""
        if self._comps is None:
            buckets: dict[Grade, dict] = {}
            for (i, j), c in self._entries.items():
                buckets.setdefault(self.entry_grade(i, j), {})[(i, j)] = c
            self._comps = sorted(
                ((g, self._like(e)) for g, e in buckets.items()),
                key=lambda kv: kv[0].as_tuple(),
            )
        return self._comps

    def decompose(self) -> dict[Grade, "GradedMatrix"]:
        """Split into the four block-homogeneous components (zeros included)."""
        parts = {g: GradedMatrix.zero(self.params) for g in GRADES}
        parts.update(self._components())
        return parts

    @property
    def is_homogeneous(self) -> bool:
        return len(self._components()) <= 1

    def homogeneous_grade(self) -> Grade | None:
        """Grade of a homogeneous matrix; None for zero (which has every grade)."""
        comps = self._components()
        if not comps:
            return None
        if len(comps) > 1:
            raise ValueError("matrix is not homogeneous")
        return comps[0][0]

    def supertrace(self) -> RadicalSum:
        """Signed trace: +1 on rows 0..m, -1 on rows m+1..m+n."""
        m = self.params.m
        total = RadicalSum()
        for i in self.params.indices():
            c = self._entries.get((i, i))
            if c is not None:
                total = total + c if i <= m else total - c
        return total

    def to_json(self) -> dict:
        return {"params": list(self.params.as_tuple()), "entries": self._entries_json()}

    def __repr__(self) -> str:
        return f"GradedMatrix(params={self.params}, nnz={self.nnz})"


def graded_bracket(x: GradedMatrix, y: GradedMatrix) -> GradedMatrix:
    """Graded bracket, extended bilinearly over the component decomposition."""
    x._check_same(y)
    total = GradedMatrix.zero(x.params)
    for a, xa in x._components():
        for b, yb in y._components():
            # xa yb - (-1)**(a.b) yb xa
            term = xa @ yb + yb @ xa if a.dot(b) else xa @ yb - yb @ xa
            total = term if total.is_zero else total + term
    return total


def supertrace(matrix: GradedMatrix) -> RadicalSum:
    return matrix.supertrace()


def jacobi_residual(x: GradedMatrix, y: GradedMatrix, z: GradedMatrix) -> GradedMatrix:
    """[[x,[y,z]]] - [[[x,y],z]] - (-1)**(a.b) [[y,[x,z]]] for homogeneous inputs.

    The identity holds iff the result is the zero matrix.  Zero inputs are
    accepted with any grade, which leaves the residual zero regardless of
    the sign chosen.
    """
    a = x.homogeneous_grade()
    b = y.homogeneous_grade()
    z.homogeneous_grade()  # enforce the precondition on z as well
    sign = a.sign(b) if a is not None and b is not None else 1
    term1 = graded_bracket(x, graded_bracket(y, z))
    term2 = graded_bracket(graded_bracket(x, y), z)
    term3 = graded_bracket(y, graded_bracket(x, z))
    result = term1 - term2
    return result - term3 if sign == 1 else result + term3


# Parity of a.b for 2-bit grade masks a, b, indexed by a & b: the bracket
# sign (-1)**(a.b) is -1 exactly when _ODD[a & b] is 1.
_ODD = (0, 1, 1, 0)


def _mask(grade: Grade) -> int:
    return grade.a1 << 1 | grade.a2


class _IntegerBrackets(dict):
    """Graded brackets of interned sparse integer matrices, memoised by id pair.

    An element is a sorted tuple of ``((i, j), c)`` with integer ``c != 0``;
    interning gives it an int id, and id 0 is the zero matrix.  Looking up
    ``self[x, y]`` returns the id of ``[x, y]``, computing it on first use by
    sparse products over the homogeneous components, exactly as
    ``graded_bracket`` does on ``GradedMatrix``.  One instance serves one
    axiom sweep, so the memo never outlives the call.
    """

    def __init__(self, index_masks: list[int]) -> None:
        super().__init__()
        self.index_masks = index_masks
        self.elements: list[tuple] = []
        # per id: [(grade mask, entries ((i, k), c), rows {k: [(j, c)]})]
        self.components: list[list[tuple[int, tuple, dict]]] = []
        self._ids: dict[tuple, int] = {}
        self.intern(())

    def intern(self, entries: tuple) -> int:
        eid = self._ids.get(entries)
        if eid is None:
            eid = self._ids[entries] = len(self.elements)
            self.elements.append(entries)
            masks = self.index_masks
            parts: dict[int, list] = {}
            for entry in entries:
                (i, j), _ = entry
                parts.setdefault(masks[i] ^ masks[j], []).append(entry)
            comps = []
            for grade, part in sorted(parts.items()):
                rows: dict[int, list[tuple[int, int]]] = {}
                for (k, j), c in part:
                    rows.setdefault(k, []).append((j, c))
                comps.append((grade, tuple(part), rows))
            self.components.append(comps)
        return eid

    def __missing__(self, key: tuple[int, int]) -> int:
        x, y = key
        acc: dict[tuple[int, int], int] = {}
        ycomps = self.components[y]
        for a, xa, xrows in self.components[x]:
            for b, yb, yrows in ycomps:
                _add_product(acc, xa, yrows, 1)
                # subtract (-1)**(a.b) * Y_b X_a
                _add_product(acc, yb, xrows, 1 if _ODD[a & b] else -1)
        value = self[key] = self.intern(_nonzero(acc))
        return value

    def combine(self, terms: Iterable[tuple[int, int]]) -> tuple:
        """Entries of the integer combination sum(c * element) over (id, c)."""
        acc: dict[tuple[int, int], int] = {}
        for eid, coeff in terms:
            for key, c in self.elements[eid]:
                acc[key] = acc.get(key, 0) + coeff * c
        return _nonzero(acc)


def _add_product(acc: dict, a: tuple, b_rows: dict, sign: int) -> None:
    """acc += sign * A.B for entries A and row map B."""
    for (i, k), x in a:
        for j, y in b_rows.get(k, ()):
            key = (i, j)
            acc[key] = acc.get(key, 0) + sign * x * y


def _nonzero(acc: dict) -> tuple:
    return tuple(sorted(item for item in acc.items() if item[1]))


def axiom_report(params: AlgebraParams) -> AxiomReport:
    """Exhaustive bracket-axiom sweep over all matrix units of the algebra.

    Checks, on every homogeneous basis pair, the symmetry identity, the
    grading of the bracket and the vanishing of the supertrace of brackets;
    and the Jacobi identity on every basis triple.  Every matrix met by the
    sweep has integer entries, so it runs on interned integer matrices
    (``_IntegerBrackets``); failing residuals are rendered as ``GradedMatrix``
    and ``RadicalSum`` JSON.  An algebra with more than ``MAX_AXIOM_TRIPLES``
    basis triples is rejected with ``ValueError`` before anything is built.
    """
    triples = params.size**6
    if triples > MAX_AXIOM_TRIPLES:
        raise ValueError(
            f"axiom sweep for {params.as_tuple()} needs {triples} Jacobi triples, "
            f"above the limit {MAX_AXIOM_TRIPLES}"
        )
    m = params.m
    index_masks = [_mask(params.index_grade(i)) for i in params.indices()]
    brackets = _IntegerBrackets(index_masks)
    units = [
        (i, j, brackets.intern((((i, j), 1),)), index_masks[i] ^ index_masks[j])
        for i in params.indices()
        for j in params.indices()
    ]
    table = [[brackets[ux, uy] for (_, _, uy, _) in units] for (_, _, ux, _) in units]
    elements = brackets.elements

    def matrix_json(entries: tuple) -> dict:
        return GradedMatrix(params, entries).to_json()

    failures: list[CheckFailure] = []
    pairs_checked = 0
    for x, (i1, j1, _, a) in enumerate(units):
        for y, (i2, j2, _, b) in enumerate(units):
            pairs_checked += 1
            bxy = table[x][y]
            sym = brackets.combine(((bxy, 1), (table[y][x], -1 if _ODD[a & b] else 1)))
            if sym:
                failures.append(CheckFailure("symmetry", (i1, j1, i2, j2), matrix_json(sym)))
            if bxy:
                comps = brackets.components[bxy]
                if len(comps) != 1 or comps[0][0] != a ^ b:
                    failures.append(
                        CheckFailure("grading", (i1, j1, i2, j2), matrix_json(elements[bxy]))
                    )
            st = sum(c if i <= m else -c for (i, j), c in elements[bxy] if i == j)
            if st:
                failures.append(
                    CheckFailure("supertrace", (i1, j1, i2, j2), RadicalSum(st).to_json())
                )

    triples_checked = 0
    for x, (i1, j1, ux, a) in enumerate(units):
        row_x = table[x]
        for y, (i2, j2, uy, b) in enumerate(units):
            row_y = table[y]
            bxy = row_x[y]
            s3 = 1 if _ODD[a & b] else -1
            for z, (i3, j3, uz, _) in enumerate(units):
                # [x,[y,z]] - [[x,y],z] - (-1)**(a.b) [y,[x,z]]
                t1 = brackets[ux, row_y[z]]
                t2 = brackets[bxy, uz]
                t3 = brackets[uy, row_x[z]]
                if t1 or t2 or t3:
                    res = brackets.combine(((t1, 1), (t2, -1), (t3, s3)))
                    if res:
                        failures.append(
                            CheckFailure("jacobi", (i1, j1, i2, j2, i3, j3), matrix_json(res))
                        )
            triples_checked += len(units)

    return AxiomReport(params.as_tuple(), pairs_checked, triples_checked, failures)
