"""Gaussian rationals p + q*i with p, q exact Fractions, and their matrix product.

No module of the package imports this one: `oplab` runs on Gaussian
integers over one denominator.  It is kept for the tests' Gaussian
reference (`tests/polyref.py`), which builds its matrices on `QQi`,
`GZERO` and `gmatmul` and holds the other Gaussian-rational matrix
helpers, and for the traced `gmatmul`, which the benchmark's tracer names.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .errors import DimensionMismatch
from .ratlinalg import frac


class QQi:
    """An element of Q(i).  Immutable, hashable, exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", frac(re))
        object.__setattr__(self, "im", frac(im))

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    def __add__(self, other):
        other = _coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n2 = other.re * other.re + other.im * other.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * QQi(other.re / n2, -other.im / n2)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


def _coerce(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Q)):
        return QQi(x)
    raise TypeError(f"cannot coerce {x!r} to Q(i)")


GZERO = QQi(0)


def gmatmul(a, b):
    """The product of two QQi matrices given as tuples of rows."""
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("gmatmul shapes")
    bt = tuple(zip(*b))
    out = []
    for ra in a:
        row = []
        for cb in bt:
            s = GZERO
            for x, y in zip(ra, cb):
                if x and y:
                    s = s + x * y
            row.append(s)
        out.append(tuple(row))
    return tuple(out)
