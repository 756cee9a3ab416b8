"""Z2 x Z2 degree arithmetic, block-graded matrices and bracket axioms.

The bracket on homogeneous pieces is X*Y - (-1)**(a.b) * Y*X and is extended
bilinearly over the four-component decomposition, so commutators and
anticommutators are both special cases of one operation.
"""

from __future__ import annotations

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
]

# Largest Jacobi sweep ``axiom_report`` will run, in basis triples (N**6 for
# N x N matrices, so N <= 21); past it the request fails before any work.
MAX_AXIOM_TRIPLES = 10**8


class _Frozen:
    """Base of the immutable value types.

    A subclass sets its ``__slots__`` once, in ``__new__`` or ``__init__``,
    through ``object.__setattr__``; any later assignment or deletion raises
    ``AttributeError``.  Its fields are its slots, in order: a value equals
    only a value of its own class with equal fields, hashes as its field
    tuple and prints as ``Name(field=value, ...)``.  Copies and pickles
    rebuild it through its constructor, from that tuple.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Grade(_Frozen):
    """One of the four degrees (0,0), (1,1), (1,0), (0,1).

    Each degree is one shared instance: ``Grade(a1, a2)`` looks it up.
    """

    __slots__ = ("a1", "a2")

    def __new__(cls, a1: int, a2: int) -> "Grade":
        try:
            return _DEGREES[a1, a2]
        except (KeyError, TypeError):
            raise ValueError("grade components must be bits") from None

    def __add__(self, other: "Grade") -> "Grade":
        return Grade((self.a1 + other.a1) % 2, (self.a2 + other.a2) % 2)

    def dot(self, other: "Grade") -> int:
        return (self.a1 * other.a1 + self.a2 * other.a2) % 2

    def sign(self, other: "Grade") -> int:
        """(-1)**(self . other), the sign twisting bracket and symmetry."""
        return -1 if self.dot(other) else 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.a1, self.a2)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Grade:
            return NotImplemented
        return self is other

    def __hash__(self) -> int:
        return hash((self.a1, self.a2))

    def __str__(self) -> str:
        return f"({self.a1},{self.a2})"


_DEGREES: dict[tuple[int, int], Grade] = {}
for _bits in ((0, 0), (1, 1), (1, 0), (0, 1)):
    _DEGREES[_bits] = _degree = object.__new__(Grade)
    object.__setattr__(_degree, "a1", _bits[0])
    object.__setattr__(_degree, "a2", _bits[1])
del _bits, _degree

GRADES: tuple[Grade, ...] = tuple(_DEGREES.values())


class AlgebraParams(_Frozen):
    """Block sizes (m1+1, m2 | n1, n2) of the matrix realization."""

    __slots__ = ("m1", "m2", "n1", "n2")

    def __init__(self, m1: int, m2: int, n1: int, n2: int) -> None:
        for name, v in (("m1", m1), ("m2", m2), ("n1", n1), ("n2", n2)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
            object.__setattr__(self, name, v)

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
    and on every basis triple x, y, z of degrees a, b, c the Jacobi identity
    J(x,y,z) = [x,[y,z]] - [[x,y],z] - e(a,b)[y,[x,z]] = 0, where
    e(a,b) = (-1)**(a.b).  An algebra with more than ``MAX_AXIOM_TRIPLES``
    basis triples is rejected with ``ValueError`` before anything is built.

    The units' brackets are computed once, into a table.  A passing sweep is
    decided from the unit pairs x <= y and the sorted triples x <= y <= z
    alone (in unit order).  This is exact because ``graded_bracket`` is
    bilinear and e is a symmetric bicharacter, e(a,b) e(b,a) = 1 and
    e(a+b,c) = e(a,c) e(b,c) (Scheunert, J. Math. Phys. 20, 1979):

    * symmetry at (y,x) is e(a,b) times symmetry at (x,y); once it vanishes,
      [y,x] = -e(a,b)[x,y] has the grading and supertrace of [x,y];
    * with symmetry and grading on unit pairs, bilinearity gives
      [u,z] = -e(a+b,c)[z,u] for u = [x,y], so J(x,y,z) equals
      [x,[y,z]] + e(a+b,c)[z,[x,y]] - e(a,b)[y,[x,z]], whose outer brackets
      are read from the table's memo, each with a unit on the left;
    * the same facts give J(y,x,z) = -e(a,b)J(x,y,z) and
      J(x,z,y) = -e(b,c)J(x,y,z); these two transpositions reach every
      ordering, so J vanishes on all triples once it does on sorted ones.

    If any of those checks fails, ``_full_axiom_sweep`` runs every pair and
    triple; it is the only path that records failures.  Either way the
    report counts the whole sweep: N**4 pairs and N**6 triples.
    """
    triples = params.size**6
    if triples > MAX_AXIOM_TRIPLES:
        raise ValueError(
            f"axiom sweep for {params.as_tuple()} needs {triples} Jacobi triples, "
            f"above the limit {MAX_AXIOM_TRIPLES}"
        )
    brackets = _BracketTable(params)
    units = [
        (i, j, brackets.intern(GradedMatrix.unit(params, i, j)),
         params.index_grade(i) + params.index_grade(j))
        for i in params.indices()
        for j in params.indices()
    ]
    table = [[brackets[ux, uy] for (_, _, uy, _) in units] for (_, _, ux, _) in units]
    if not _sorted_sweep_passes(brackets, units, table):
        return _full_axiom_sweep(params, brackets, units, table)
    n = len(units)
    return AxiomReport(params.as_tuple(), n * n, n**3)


def _pair_failures(
    indices: tuple[int, ...], bxy: GradedMatrix, byx: GradedMatrix, a: Grade, b: Grade
) -> list[CheckFailure]:
    """Symmetry, grading and supertrace failures of the unit pair (x, y)."""
    out = []
    sym = bxy + byx if a.sign(b) == 1 else bxy - byx
    if not sym.is_zero:
        out.append(CheckFailure("symmetry", indices, sym.to_json()))
    if not bxy.is_zero:
        comps = bxy._components()
        if len(comps) != 1 or comps[0][0] != a + b:
            out.append(CheckFailure("grading", indices, bxy.to_json()))
    st = bxy.supertrace()
    if not st.is_zero:
        out.append(CheckFailure("supertrace", indices, st.to_json()))
    return out


def _sorted_sweep_passes(brackets: _BracketTable, units: list, table: list) -> bool:
    """Whether the pair checks pass on the unit pairs x <= y and the Jacobi
    residual vanishes on the sorted triples x <= y <= z (see ``axiom_report``)."""
    elements, n = brackets.elements, len(units)
    for x, (i1, j1, _, a) in enumerate(units):
        for y in range(x, n):
            i2, j2, _, b = units[y]
            bxy, byx = elements[table[x][y]], elements[table[y][x]]
            if _pair_failures((i1, j1, i2, j2), bxy, byx, a, b):
                return False
    ids = [u for (_, _, u, _) in units]
    # e(g, c) for every degree g and every unit z of degree c
    eps = {g: [g.sign(c) for (_, _, _, c) in units] for g in GRADES}
    # whether each distinct residual, keyed by its three bracket ids and two
    # signs, vanishes; a zero bracket (id 0) brackets to zero and is skipped
    residuals: dict[tuple[int, int, int, int, int], bool] = {}
    for x, (_, _, ux, a) in enumerate(units):
        row_x = table[x]
        for y in range(x, n):
            _, _, uy, b = units[y]
            row_y, xy, sign, eps_xy = table[y], row_x[y], a.sign(b), eps[a + b]
            for z in range(y, n):
                # [x,[y,z]] + e(a+b,c) [z,[x,y]] - e(a,b) [y,[x,z]]
                yz, xz = row_y[z], row_x[z]
                t1 = brackets[ux, yz] if yz else 0
                t2 = brackets[ids[z], xy] if xy else 0
                t3 = brackets[uy, xz] if xz else 0
                if t1 or t2 or t3:
                    key = (t1, t2, t3, sign, eps_xy[z])
                    zero = residuals.get(key)
                    if zero is None:
                        acc = dict(elements[t1]._entries)
                        elements[t2]._add_into(acc, eps_xy[z])
                        elements[t3]._add_into(acc, -sign)
                        zero = residuals[key] = not acc
                    if not zero:
                        return False
    return True


def _full_axiom_sweep(
    params: AlgebraParams, brackets: _BracketTable, units: list, table: list
) -> AxiomReport:
    """Every pair check and every Jacobi triple, each failure recorded: pair
    failures in pair order, then Jacobi failures in triple order."""
    elements = brackets.elements
    failures: list[CheckFailure] = []
    jacobi: list[CheckFailure] = []
    for x, (i1, j1, ux, a) in enumerate(units):
        row_x = table[x]
        for y, (i2, j2, uy, b) in enumerate(units):
            xy, sign = row_x[y], a.sign(b)
            bxy, byx = elements[xy], elements[table[y][x]]
            failures += _pair_failures((i1, j1, i2, j2), bxy, byx, a, b)
            for (i3, j3, uz, _), yz, xz in zip(units, table[y], row_x):
                # [x,[y,z]] - [[x,y],z] - (-1)**(a.b) [y,[x,z]]
                t1, t2, t3 = brackets[ux, yz], brackets[xy, uz], brackets[uy, xz]
                if t1 or t2 or t3:
                    res = elements[t1] - elements[t2]
                    elements[t3]._add_into(res._entries, -sign)
                    if not res.is_zero:
                        jacobi.append(
                            CheckFailure("jacobi", (i1, j1, i2, j2, i3, j3), res.to_json())
                        )

    n = len(units)
    return AxiomReport(params.as_tuple(), n * n, n**3, failures + jacobi)
