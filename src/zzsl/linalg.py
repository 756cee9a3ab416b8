"""Exact linear algebra over the rationals; just enough for rank checks."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence


class RationalRowSpace:
    """Row space maintained by incremental Gaussian elimination over Fraction.

    Rows are sparse ``{column: Fraction}`` maps, each scaled to 1 at its
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

    def _reduce(self, vector: Sequence) -> dict[int, Fraction]:
        if len(vector) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(vector)}")
        v = {col: Fraction(x) for col, x in enumerate(vector) if x}
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

    def add(self, vector: Sequence) -> bool:
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

    def contains(self, vector: Sequence) -> bool:
        return not self._reduce(vector)


def rational_rank(vectors: Iterable[Sequence], width: int) -> int:
    space = RationalRowSpace(width)
    for v in vectors:
        space.add(v)
    return space.rank
