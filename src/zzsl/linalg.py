"""Exact linear algebra: sparse matrices of exact scalars, rational row spaces."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .radicals import RadicalSum, exact


class SparseMatrix:
    """Square matrix of exact scalars, stored as its nonzero entries.

    ``_entries`` maps ``(row, col)`` to a nonzero entry: a plain ``int`` when
    it is integral, else a RadicalSum (see ``radicals.exact``).  Arithmetic
    on ``int`` entries stays ``int``; radical arithmetic may leave an integral
    value as a RadicalSum, which compares and hashes equal to its ``int``.
    ``entry``, ``items`` and the JSON renderings hand out RadicalSum.  A vector
    is a matrix whose entries all lie in column 0.

    ``_space`` is what the matrix acts on: it has a ``size`` and an
    ``index_grade(i)``.  Two operands combine when their spaces are the same
    object or equal.  ``grade`` is an optional declared Z2 x Z2 degree:
    products add declared grades, a sum keeps one only when both operands
    share it, and negation, scalar multiples and ``transpose`` keep it.  A
    matrix without one is graded entry by entry, entry (i, j) having degree
    ``index_grade(i) + index_grade(j)``.  Instances are immutable.
    """

    __slots__ = ("_entries", "_space", "_col_map", "_comps", "grade")

    # ------------------------------------------------------------------ build

    def __init__(self, space, entries=(), grade=None) -> None:
        size = space.size
        items = entries.items() if hasattr(entries, "items") else entries
        clean: dict[tuple[int, int], int | RadicalSum] = {}
        for (i, j), value in items:
            if type(i) is not int or type(j) is not int:  # a bool is not an index
                raise TypeError(f"matrix indices must be integers, got ({i!r},{j!r})")
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"entry ({i},{j}) outside {size}x{size} matrix")
            coeff = exact(value)
            if coeff is None:
                raise TypeError(f"matrix entries must be exact scalars, got {type(value).__name__}")
            if coeff:
                clean[(i, j)] = coeff
        self._entries = clean
        self._space = space
        self._col_map = self._comps = None
        self.grade = grade

    def _like(self, entries: dict, grade=None):
        """A matrix of the same class and space around a clean entry dict."""
        out = object.__new__(type(self))
        out._entries = entries
        out._space = self._space
        out._col_map = out._comps = None
        out.grade = grade
        return out

    @classmethod
    def zero(cls, space, grade=None):
        return cls(space, {}, grade)

    # ------------------------------------------------------------ inspection

    def entry(self, i: int, j: int) -> RadicalSum:
        return RadicalSum._coerce(self._entries.get((i, j), 0))

    def items(self) -> list[tuple[int, int, RadicalSum]]:
        """Nonzero entries in row-major order."""
        return [(i, j, RadicalSum._coerce(c)) for (i, j), c in sorted(self._entries.items())]

    @property
    def nnz(self) -> int:
        return len(self._entries)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def _cols(self) -> dict[int, list[tuple[int, int | RadicalSum]]]:
        cols: dict[int, list[tuple[int, int | RadicalSum]]] = {}
        for (i, j), c in self._entries.items():
            cols.setdefault(j, []).append((i, c))
        self._col_map = cols
        return cols

    def _components(self) -> list:
        """Nonzero homogeneous components as (grade, matrix) pairs, by grade.

        A declared grade is taken as it is; the list is then not cached,
        since it holds the matrix itself.  Otherwise the entries are split
        by degree into components that declare none.
        """
        if self.grade is not None:
            return [(self.grade, self)] if self._entries else []
        if self._comps is None:
            index_grade = self._space.index_grade
            buckets: dict = {}
            for (i, j), c in self._entries.items():
                buckets.setdefault(index_grade(i) + index_grade(j), {})[(i, j)] = c
            self._comps = sorted(
                ((g, self._like(e)) for g, e in buckets.items()),
                key=lambda kv: kv[0].as_tuple(),
            )
        return self._comps

    def homogeneous_grade(self):
        """Grade of a homogeneous matrix; None for zero (which has every grade)."""
        comps = self._components()
        if not comps:
            return None
        if len(comps) > 1:
            raise ValueError("matrix is not homogeneous")
        return comps[0][0]

    def _entries_json(self) -> list[dict]:
        return [{"row": i, "col": j, "coeff": c.to_json()} for i, j, c in self.items()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        mine, theirs = self._space, other._space
        return (mine is theirs or mine == theirs) and self._entries == other._entries

    # ------------------------------------------------------------ arithmetic

    def _check_same(self, other: "SparseMatrix") -> None:
        if getattr(other, "_space", None) is self._space:
            return
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if self._space != other._space:
            raise ValueError("matrices live in different spaces")

    def _merge(self, other: "SparseMatrix", subtract: bool):
        """self + other, or self - other as one signed merge."""
        self._check_same(other)
        acc = dict(self._entries)
        for key, c in other._entries.items():
            cur = acc.get(key)
            if cur is None:
                acc[key] = c * -1 if subtract else c
                continue
            new = cur - c if subtract else cur + c
            if new:
                acc[key] = new
            else:
                del acc[key]
        grade = self.grade
        return self._like(acc, grade if grade == other.grade else None)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return self._like({k: -c for k, c in self._entries.items()}, self.grade)

    def __mul__(self, scalar):
        scalar = exact(scalar)
        if scalar is None:
            return NotImplemented
        if not scalar:
            return self._like({}, self.grade)
        return self._like({k: c * scalar for k, c in self._entries.items()}, self.grade)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product, walking the right operand's entries against the left
        operand's cached columns, so ``A @ v`` for a vector ``v`` touches
        only the columns of ``A`` that ``v`` selects."""
        self._check_same(other)
        acc: dict[tuple[int, int], int | RadicalSum] = {}
        cols = self._col_map
        if cols is None:
            cols = self._cols()
        for (k, j), y in other._entries.items():
            col = cols.get(k)
            if col is None:
                continue
            for i, x in col:
                key = (i, j)
                cur = acc.get(key)
                if cur is None:
                    acc[key] = x * y  # nonzero: a product of nonzero reals
                    continue
                new = cur + x * y
                if new:
                    acc[key] = new
                else:
                    del acc[key]
        a, b = self.grade, other.grade
        return self._like(acc, None if a is None or b is None else a + b)

    def transpose(self):
        return self._like({(j, i): c for (i, j), c in self._entries.items()}, self.grade)


class RationalRowSpace:
    """Row space maintained by incremental Gaussian elimination over Fraction.

    Vectors are sparse ``{column: value}`` maps with columns in
    ``[0, width)``.  Rows are stored the same way, each scaled to 1 at its
    pivot (the first nonzero column left after reducing it by the rows
    inserted before it).  A row is zero at the pivot of every earlier row, so
    reducing a vector by the rows in insertion order never revisits a pivot;
    only the rows whose pivot column is nonzero in the vector take part.
    """

    def __init__(self, width: int) -> None:
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self._rows: list[dict[int, Fraction]] = []
        self._pivots: list[int] = []
        self._row_of_pivot: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector: Mapping) -> dict[int, Fraction]:
        v: dict[int, Fraction] = {}
        for col, x in vector.items():
            if not 0 <= col < self.width:
                raise ValueError(f"column {col} outside width {self.width}")
            if x:
                v[col] = Fraction(x)
        row_of_pivot = self._row_of_pivot
        # Rows to apply, by insertion index; subtracting row k only adds
        # entries at pivots of rows inserted after k.
        pending = [row_of_pivot[col] for col in v if col in row_of_pivot]
        heapify(pending)
        while pending:
            k = heappop(pending)
            c = v.get(self._pivots[k])
            if c is None:
                continue  # cancelled since it was queued, or queued twice
            for col, b in self._rows[k].items():
                new = v.get(col, 0) - c * b
                if new:
                    if col not in v and col in row_of_pivot:
                        heappush(pending, row_of_pivot[col])
                    v[col] = new
                else:
                    v.pop(col, None)
        return v

    def add(self, vector: Mapping) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        v = self._reduce(vector)
        if not v:
            return False
        pivot = min(v)
        inv = 1 / v[pivot]
        self._row_of_pivot[pivot] = len(self._rows)
        self._rows.append({col: c * inv for col, c in v.items()})
        self._pivots.append(pivot)
        return True


def rational_rank(vectors: Iterable[Mapping], width: int) -> int:
    space = RationalRowSpace(width)
    for v in vectors:
        space.add(v)
    return space.rank
