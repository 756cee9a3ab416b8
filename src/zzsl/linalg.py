"""Exact linear algebra: sparse matrices over RadicalSum, rational row spaces."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .radicals import RadicalSum


class SparseMatrix:
    """Square matrix over RadicalSum, stored as its nonzero entries.

    ``_entries`` maps ``(row, col)`` to a nonzero coefficient.  A vector is a
    matrix whose entries all lie in column 0.  A subclass
    fixes the space the matrix acts on: ``_place(*space)`` stores it,
    ``_key()`` says which operands may be combined, and
    ``_like(entries, other=None, product=False)`` wraps a result in the same
    space (``other`` is the second operand of a sum or, with ``product``, of
    a product).  ``_noun`` and ``_mismatch`` word its error messages.
    Instances are immutable.
    """

    __slots__ = ("_entries", "_col_map")
    _noun = "matrix"
    _mismatch = "matrices live in different spaces"

    # ------------------------------------------------------------------ build

    def _validate(self, entries, size: int) -> None:
        items = entries.items() if hasattr(entries, "items") else entries
        clean: dict[tuple[int, int], RadicalSum] = {}
        for (i, j), value in items:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"entry ({i},{j}) outside {size}x{size} {self._noun}")
            coeff = RadicalSum._coerce(value)
            if coeff is None:
                raise TypeError(f"matrix entries must be exact scalars, got {type(value).__name__}")
            if not coeff.is_zero:
                clean[(i, j)] = coeff
        self._entries = clean
        self._col_map = None

    @classmethod
    def _raw(cls, entries: dict, *space):
        """Wrap a clean entry dict (no zeros, indices in range) without copying."""
        out = cls.__new__(cls)
        out._entries = entries
        out._col_map = None
        out._place(*space)
        return out

    @classmethod
    def zero(cls, *space):
        return cls._raw({}, *space)

    # ------------------------------------------------------------ inspection

    def entry(self, i: int, j: int) -> RadicalSum:
        return self._entries.get((i, j), RadicalSum())

    def items(self) -> list[tuple[int, int, RadicalSum]]:
        """Nonzero entries in row-major order."""
        return [(i, j, c) for (i, j), c in sorted(self._entries.items())]

    @property
    def nnz(self) -> int:
        return len(self._entries)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def _cols(self) -> dict[int, list[tuple[int, RadicalSum]]]:
        if self._col_map is None:
            cols: dict[int, list[tuple[int, RadicalSum]]] = {}
            for (i, j), c in self._entries.items():
                cols.setdefault(j, []).append((i, c))
            self._col_map = cols
        return self._col_map

    def _entries_json(self) -> list[dict]:
        return [{"row": i, "col": j, "coeff": c.to_json()} for i, j, c in self.items()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key() and self._entries == other._entries

    # ------------------------------------------------------------ arithmetic

    def _check_same(self, other: "SparseMatrix") -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        mine, theirs = self._key(), other._key()
        if mine is not theirs and mine != theirs:
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
            if new.is_zero:
                del acc[key]
            else:
                acc[key] = new
        return self._like(acc, other)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return self._like({k: -c for k, c in self._entries.items()})

    def __mul__(self, scalar):
        scalar = RadicalSum._coerce(scalar)
        if scalar is None:
            return NotImplemented
        if scalar.is_zero:
            return self._like({})
        return self._like({k: c * scalar for k, c in self._entries.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product, walking the right operand's entries against the left
        operand's cached columns, so ``A @ v`` for a vector ``v`` touches
        only the columns of ``A`` that ``v`` selects."""
        self._check_same(other)
        acc: dict[tuple[int, int], RadicalSum] = {}
        cols = self._cols()
        for (k, j), y in other._entries.items():
            col = cols.get(k)
            if not col:
                continue
            for i, x in col:
                key = (i, j)
                v = x * y
                cur = acc.get(key)
                new = v if cur is None else cur + v
                if new.is_zero:
                    acc.pop(key, None)
                else:
                    acc[key] = new
        return self._like(acc, other, product=True)

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
