"""Exact scalars: arbitrary-precision rationals and univariate rational functions.

The scalar type of the whole package is ``fractions.Fraction``, which already
guarantees the canonical form we need (positive denominator, gcd one).  On top
of it this module provides dense polynomials with integer coefficients in one
formal variable m, and rational functions as unreduced pairs of them.  The
polynomials form a ring (+, -, x); a rational function's arithmetic
cross-multiplies pairs, and equality of rational functions is decided by
cross-multiplication, never by sampling.  The symbolic checks need nothing
more: no pair is ever reduced, and no polynomial is divided by another.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction
from operator import index

from .errors import PreconditionError

Scalar = int | Fraction

def quotient(num, den):
    """num / den, divided once: a reduced Fraction for two ints, else in the operands' field."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def format_rational(x: Scalar) -> str:
    """Serialize a rational as ``p`` or ``p/q`` in lowest terms, q > 0.

    A value past Python's int -> str digit limit is refused; the limit stays,
    as it also guards how command-line integers are parsed.
    """
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise PreconditionError(f"result exceeds the {sys.get_int_max_str_digits()}-digit "
                                "limit on printing an integer") from exc


class Poly:
    """Dense univariate polynomial with integer coefficients.

    ``ints`` holds the coefficients in ascending order with trailing zeros
    stripped (empty for the zero polynomial), so each polynomial has one
    stored form, and ``==`` compares it.  A coefficient that is not an int
    is refused with ``TypeError``.
    """

    __slots__ = ("ints",)

    def __init__(self, ints: Iterable[int] = ()):
        ints = list(map(index, ints))
        while ints and not ints[-1]:
            ints.pop()
        self.ints = tuple(ints)

    def scaled(self, c: int) -> "Poly":
        return Poly([c * x for x in self.ints])

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.ints])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        # RatFunc pairs every int and the variable with the denominator 1: skip those products.
        if a == (1,):
            return other
        if b == (1,):
            return self
        if not a or not b:
            return Poly()
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ints == other.ints

    __hash__ = None


def _homogeneous(ints, x: Scalar) -> tuple[int, int]:
    """(v, q^n) with the polynomial ``ints`` at x = p/q equal to v / q^n.

    v is the sum of ints[i] * p^i * q^(n-i), n = len(ints) - 1, by Horner's rule on ints.
    """
    p, q = x.numerator, x.denominator
    v, qk = 0, 1
    for c in reversed(ints):
        v, qk = v * p + c * qk, qk * q
    return v, qk // q or 1


_ONE = Poly((1,))


class RatFunc:
    """Rational function in one formal variable m, stored as the pair ``num / den``.

    ``num`` and ``den`` are integer ``Poly``s, ``den`` never zero.  An int or
    ``Fraction`` constant p/q becomes the pair (p, q).  All four field
    operations are supported, with ints and Fractions coerced to constants,
    so formulas written for numeric inputs evaluate unchanged over rational
    functions.  An operation returns the cross-multiplied pair of its
    operands, and no pair is ever reduced: ``==`` (``ratfunc_equal``)
    cross-multiplies, so it compares the functions whatever pairs hold
    them, and the class is unhashable, since equal functions may be held by
    different pairs.  ``eval`` reads the stored pair, so every root of the
    stored denominator is refused as a pole, a removable singularity too.

    Unreduced degrees add up along an expression: ``family_gap_symbolic()``
    holds a pair of degrees 12/16, against 5/9 for ``family_gap_function()``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Scalar = Poly(), den: Poly = _ONE):
        if not isinstance(num, Poly):
            if not isinstance(num, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(num).__name__} to RatFunc")
            num, den = Poly((num.numerator,)), den * Poly((num.denominator,))
        if not den.ints:
            raise ZeroDivisionError("zero denominator polynomial")
        self.num, self.den = num, den

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls(Poly((0, 1)))

    def eval(self, m0: Scalar) -> Fraction:
        """Exact value of the stored pair at m0; a root of the stored denominator is a pole."""
        dv, dq = _homogeneous(self.den.ints, m0)
        if dv == 0:
            raise ZeroDivisionError(f"pole at m = {format_rational(m0)}")
        nv, nq = _homogeneous(self.num.ints, m0)
        # num(m0) / den(m0) = (nv / nq) / (dv / dq)
        return Fraction(nv * dq, dv * nq)

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        if isinstance(other, int):  # a constant c adds c * den to the numerator
            return RatFunc(self.num + self.den.scaled(other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):  # a constant only scales the numerator
            return RatFunc(self.num.scaled(other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ratfunc_equal(self, o)

    __hash__ = None


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """True iff f - g is identically zero: the stored pairs cross-multiplied."""
    return f.num * g.den == g.num * f.den
