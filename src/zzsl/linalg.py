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

    ``_space`` is what the matrix acts on; two operands combine when their
    spaces are the same object or equal.  A subclass builds its results with
    ``_like(entries, other=None, product=False)``, which wraps a clean entry
    dict in the same space (``other`` is the second operand of a sum or, with
    ``product``, of a product), and words its errors with ``_noun`` and
    ``_mismatch``.  Instances are immutable.
    """

    __slots__ = ("_entries", "_space", "_col_map")
    _noun = "matrix"
    _mismatch = "matrices live in different spaces"

    # ------------------------------------------------------------------ build

    def _validate(self, entries, size: int) -> None:
        items = entries.items() if hasattr(entries, "items") else entries
        clean: dict[tuple[int, int], int | RadicalSum] = {}
        for (i, j), value in items:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"entry ({i},{j}) outside {size}x{size} {self._noun}")
            coeff = exact(value)
            if coeff is None:
                raise TypeError(f"matrix entries must be exact scalars, got {type(value).__name__}")
            if coeff:
                clean[(i, j)] = coeff
        self._entries = clean
        self._col_map = None

    @classmethod
    def zero(cls, space, *extra):
        return cls(space, {}, *extra)

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
            raise ValueError(self._mismatch)

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
        return self._like(acc, other)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return self._like({k: -c for k, c in self._entries.items()})

    def __mul__(self, scalar):
        scalar = exact(scalar)
        if scalar is None:
            return NotImplemented
        if not scalar:
            return self._like({})
        return self._like({k: c * scalar for k, c in self._entries.items()})

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
        return self._like(acc, other, True)

    def transpose(self):
        return self._like({(j, i): c for (i, j), c in self._entries.items()})


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

    def contains(self, vector: Mapping) -> bool:
        return not self._reduce(vector)


def rational_rank(vectors: Iterable[Mapping], width: int) -> int:
    space = RationalRowSpace(width)
    for v in vectors:
        space.add(v)
    return space.rank
