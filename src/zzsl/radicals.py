"""Exact scalars of the form sum over s of q_s * sqrt(s).

Coefficients q_s are exact rationals and every radicand s is a squarefree
positive integer, so two values are equal exactly when their term maps are
identical.  A coefficient is stored as an ``int`` when it is integral and as
a ``Fraction`` only otherwise, so products and sums of integral values never
build a ``Fraction``.  This is the coefficient domain for all matrices built
by the package; nothing downstream ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

__all__ = ["Rational", "normalize_radical", "RadicalSum", "exact"]

Rational = Union[int, Fraction]

_F0 = Fraction(0)


def _canon(q: Rational) -> Rational:
    """``q`` as an ``int`` when it is integral, else the ``Fraction`` itself."""
    return q if type(q) is int else (q.numerator if q.denominator == 1 else q)


def _check_rational(value) -> None:
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact scalars are int or Fraction, got {type(value).__name__}")


# typed: a float or bool radicand must miss the entry cached for its int value
@lru_cache(maxsize=None, typed=True)
def normalize_radical(n: int) -> tuple[int, int]:
    """Write ``n >= 0`` as ``outer**2 * squarefree`` and return ``(outer, squarefree)``.

    Factorization is plain trial division; radicands here are products of
    occupation numbers and the statistics order, so they stay tiny.
    ``normalize_radical(0) == (1, 0)`` and callers map sqrt(0) to the zero sum.
    A radicand that is not an ``int`` (a ``bool`` included) is a TypeError.
    """
    if type(n) is not int:
        raise TypeError(f"radicand must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"radicand must be nonnegative, got {n}")
    if n == 0:
        return 1, 0
    outer = 1
    squarefree = 1
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            exp = 0
            while rest % d == 0:
                rest //= d
                exp += 1
            outer *= d ** (exp // 2)
            if exp % 2:
                squarefree *= d
        d += 1 if d == 2 else 2
    squarefree *= rest
    return outer, squarefree


class RadicalSum:
    """Immutable, canonical sum of rational multiples of integer square roots."""

    __slots__ = ("_terms",)

    def __init__(self, value: Rational = 0) -> None:
        if type(value) is not int:
            _check_rational(value)
            value = _canon(Fraction(value))
        self._terms: dict[int, Rational] = {1: value} if value else {}

    # ------------------------------------------------------------------ build

    @classmethod
    def _raw(cls, terms: dict[int, Rational]) -> "RadicalSum":
        # ``terms`` must already be canonical: squarefree radicands, nonzero
        # coefficients, integral ones as ``int``.
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sqrt(cls, n: int) -> "RadicalSum":
        """Exact sqrt(n) for integer n >= 0."""
        outer, sf = normalize_radical(n)
        if sf == 0:
            return cls()
        return cls._raw({sf: outer})

    @classmethod
    def sqrt_fraction(cls, value: Rational) -> "RadicalSum":
        """Exact sqrt(a/b), stored as (1/b)*sqrt(a*b) to keep radicands integral."""
        _check_rational(value)
        q = Fraction(value)
        if q < 0:
            raise ValueError("cannot take a real square root of a negative value")
        return cls.sqrt(q.numerator * q.denominator) / q.denominator

    # ------------------------------------------------------------ inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return _F0
        if set(self._terms) == {1}:
            return Fraction(self._terms[1])
        raise ValueError(f"{self} is irrational")

    def terms(self) -> dict[int, Rational]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------ arithmetic

    @staticmethod
    def _coerce(value) -> "RadicalSum | None":
        if isinstance(value, RadicalSum):
            return value
        if isinstance(value, (int, Fraction)):
            return RadicalSum(value)
        return None

    def _merge(self, other: "RadicalSum", subtract: bool) -> "RadicalSum":
        """self + other, or self - other as one signed merge."""
        if not other._terms:
            return self
        if not self._terms and not subtract:
            return other
        acc = dict(self._terms)
        for s, q in other._terms.items():
            new = acc.get(s, 0) - q if subtract else acc.get(s, 0) + q
            if new:
                acc[s] = _canon(new)
            else:
                acc.pop(s, None)
        return RadicalSum._raw(acc)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum._raw({s: -q for s, q in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._merge(other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._merge(self, True)

    def __mul__(self, other):
        if not isinstance(other, RadicalSum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return RadicalSum()
            return RadicalSum._raw({s: _canon(c * other) for s, c in self._terms.items()})
        acc: dict[int, Rational] = {}
        for s, q in self._terms.items():
            for t, w in other._terms.items():
                # s, t squarefree: sqrt(s)*sqrt(t) = g*sqrt((s/g)*(t/g)), g = gcd(s, t)
                g = gcd(s, t)
                radicand = (s // g) * (t // g)
                new = acc.get(radicand, 0) + q * w * g
                if new:
                    acc[radicand] = _canon(new)
                else:
                    acc.pop(radicand, None)
        return RadicalSum._raw(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # ------------------------------------------------------------ comparison

    def __eq__(self, other) -> bool:
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            q = _canon(other)
            return self._terms == ({1: q} if q else {})
        return NotImplemented

    def __hash__(self) -> int:
        if not self._terms:
            return hash(0)
        if set(self._terms) == {1}:
            return hash(self._terms[1])
        return hash(tuple(sorted(self._terms.items())))

    # ------------------------------------------------------------- rendering

    def to_json(self) -> list[dict[str, str]]:
        return [
            {"num": str(q.numerator), "den": str(q.denominator), "radicand": str(s)}
            for s, q in sorted(self._terms.items())
        ]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for s, q in sorted(self._terms.items()):
            if s == 1:
                body = str(abs(q))
            elif abs(q) == 1:
                body = f"sqrt({s})"
            else:
                body = f"{abs(q)}*sqrt({s})"
            if not parts:
                parts.append(body if q > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if q > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RadicalSum({str(self)!r})"


def exact(value) -> "int | RadicalSum | None":
    """``value`` as a matrix entry: a plain ``int`` when it is integral, else a
    RadicalSum; None when it is not an exact scalar (a float, say)."""
    if type(value) is int:
        return value
    value = RadicalSum._coerce(value)
    if value is not None and value._terms.keys() <= {1}:
        q = value._terms.get(1, 0)
        if type(q) is int:
            return q
    return value
