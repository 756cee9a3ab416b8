"""Z2 x Z2 degree arithmetic, block-graded matrices and bracket axioms.

The bracket on homogeneous pieces is X*Y - (-1)**(a.b) * Y*X and is extended
bilinearly over the four-component decomposition, so commutators and
anticommutators are both special cases of one operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SparseMatrix
from .radicals import RadicalSum
from .reports import AxiomReport, CheckFailure

__all__ = [
    "Grade",
    "GRADES",
    "AlgebraParams",
    "GradedMatrix",
    "graded_bracket",
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
        if type(i) is not int:  # a bool or a float is not an index
            raise ValueError(f"index must be an int, got {i!r}")
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
    """Square matrix of exact scalars carrying the block grading of its algebra.

    Built as ``GradedMatrix(params, entries)``; it declares no grade, so its
    components come from its entries.  Instances are immutable; only nonzero
    entries are stored.
    """

    __slots__ = ()

    @property
    def params(self) -> AlgebraParams:
        return self._space

    # ------------------------------------------------------------------ build

    @classmethod
    def unit(cls, params: AlgebraParams, i: int, j: int) -> "GradedMatrix":
        """Matrix unit with a single 1 in row i, column j."""
        return cls(params, {(i, j): 1})

    # ------------------------------------------------------------ inspection

    def supertrace(self) -> RadicalSum:
        """Signed trace: +1 on rows 0..m, -1 on rows m+1..m+n."""
        m = self._space.m
        total = 0
        for (i, j), c in self._entries.items():
            if i == j:
                total = total + c if i <= m else total - c
        return RadicalSum._coerce(total)

    def to_json(self) -> dict:
        return {"params": list(self._space.as_tuple()), "entries": self._entries_json()}

    def __repr__(self) -> str:
        return f"GradedMatrix(params={self._space}, nnz={self.nnz})"


def graded_bracket(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """Graded bracket of two matrices on one space (GradedMatrix or Fock
    operator), extended bilinearly over their homogeneous components, every
    product added into one entry dict.  Nonzero x, y declaring a, b give a + b."""
    x._check_same(y)
    acc, grade = {}, None
    for a, xa in x._components():
        for b, yb in y._components():
            # xa yb - (-1)**(a.b) yb xa
            xa._add_product(yb, acc)
            yb._add_product(xa, acc, 1 if a.dot(b) else -1)
            grade = None if xa.grade is None or yb.grade is None else a + b
    return x._like(acc, grade)


class _BracketTable(dict):
    """Graded brackets of interned GradedMatrix elements, memoised by id pair.

    Interning keys an element by its entry set and gives it an int id; id 0
    is the zero matrix.  Looking up ``self[x, y]`` returns the id of
    ``graded_bracket`` of elements x and y, computing it on first use.  One
    instance serves one axiom sweep, so the memo never outlives the call.
    """

    def __init__(self, params: AlgebraParams) -> None:
        super().__init__()
        self.elements: list[GradedMatrix] = []
        self._ids: dict[frozenset, int] = {}
        self.intern(GradedMatrix(params))

    def intern(self, matrix: GradedMatrix) -> int:
        key = frozenset(matrix._entries.items())
        eid = self._ids.get(key)
        if eid is None:
            eid = self._ids[key] = len(self.elements)
            self.elements.append(matrix)
        return eid

    def __missing__(self, key: tuple[int, int]) -> int:
        x, y = key
        value = self[key] = self.intern(graded_bracket(self.elements[x], self.elements[y]))
        return value


def axiom_report(params: AlgebraParams) -> AxiomReport:
    """Exhaustive bracket-axiom sweep over all matrix units of the algebra.

    Checks, on every homogeneous basis pair, the symmetry identity, the
    grading of the bracket and the vanishing of the supertrace of brackets;
    and the Jacobi identity on every basis triple.  ``_BracketTable`` gives
    the units' brackets, then each unit's with each of those, on both sides;
    each distinct Jacobi residual is formed once.  An algebra with more than
    ``MAX_AXIOM_TRIPLES`` basis triples is rejected with ``ValueError``
    before anything is built.
    """
    triples = params.size**6
    if triples > MAX_AXIOM_TRIPLES:
        raise ValueError(
            f"axiom sweep for {params.as_tuple()} needs {triples} Jacobi triples, "
            f"above the limit {MAX_AXIOM_TRIPLES}"
        )
    brackets = _BracketTable(params)
    elements = brackets.elements
    units = [
        (i, j, brackets.intern(GradedMatrix.unit(params, i, j)),
         params.index_grade(i) + params.index_grade(j))
        for i in params.indices()
        for j in params.indices()
    ]
    ids = [u for (_, _, u, _) in units]
    table = [[brackets[ux, uy] for uy in ids] for ux in ids]
    # every unit bracketed with every element of the table's image, both sides
    image = dict.fromkeys(e for row in table for e in row)
    left = [{e: brackets[ux, e] for e in image} for ux in ids]
    right = {e: [brackets[e, uz] for uz in ids] for e in image}

    # pair failures in pair order, then Jacobi failures in triple order
    failures: list[CheckFailure] = []
    jacobi: list[CheckFailure] = []
    # each distinct residual, keyed by its three bracket ids and sign, with
    # whether it is zero
    residuals: dict[tuple[int, int, int, int], tuple[GradedMatrix, bool]] = {}
    for x, (i1, j1, _, a) in enumerate(units):
        row_x, left_x = table[x], left[x]
        for y, (i2, j2, _, b) in enumerate(units):
            sign = a.sign(b)
            bxy, byx = elements[row_x[y]], elements[table[y][x]]
            sym = bxy + byx if sign == 1 else bxy - byx
            if not sym.is_zero:
                failures.append(CheckFailure("symmetry", (i1, j1, i2, j2), sym.to_json()))
            if not bxy.is_zero:
                comps = bxy._components()
                if len(comps) != 1 or comps[0][0] != a + b:
                    failures.append(CheckFailure("grading", (i1, j1, i2, j2), bxy.to_json()))
            st = bxy.supertrace()
            if not st.is_zero:
                failures.append(CheckFailure("supertrace", (i1, j1, i2, j2), st.to_json()))

            left_y, right_xy = left[y], right[row_x[y]]
            for (i3, j3, _, _), yz, t2, xz in zip(units, table[y], right_xy, row_x):
                # [x,[y,z]] - [[x,y],z] - (-1)**(a.b) [y,[x,z]]
                t1, t3 = left_x[yz], left_y[xz]
                if t1 or t2 or t3:
                    key = (t1, t2, t3, sign)
                    found = residuals.get(key)
                    if found is None:
                        res = elements[t1] - elements[t2]
                        elements[t3]._add_into(res._entries, -sign)
                        found = residuals[key] = (res, res.is_zero)
                    if not found[1]:
                        jacobi.append(
                            CheckFailure("jacobi", (i1, j1, i2, j2, i3, j3), found[0].to_json())
                        )

    n = len(units)
    return AxiomReport(params.as_tuple(), n * n, n**3, failures + jacobi)
