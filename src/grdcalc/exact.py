"""Exact scalars: arbitrary-precision rationals and univariate rational functions.

The scalar type of the whole package is ``fractions.Fraction``, which already
guarantees the canonical form we need (positive denominator, gcd one).  On top
of it this module provides dense univariate polynomials and rational functions
in one formal variable m, normalized so that numerator and denominator are
coprime and the denominator is monic.  Equality of rational functions is
decided by cross-multiplication, never by sampling.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

def as_field(x):
    """An int as a Fraction, so that / stays exact; Fractions and RatFuncs pass through."""
    return Fraction(x) if isinstance(x, int) else x


def format_rational(x: Scalar) -> str:
    """Serialize a rational as ``p`` or ``p/q`` in lowest terms, q > 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored in ascending order with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        lead = self.leading()
        return Poly(c / lead for c in self.coeffs)

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Scalar) -> "Poly":
        return Poly(Fraction(c) * x for x in self.coeffs)

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree()
        lead = other.leading()
        quot = [Fraction(0)] * max(dn - dd + 1, 0)
        while len(rem) - 1 >= dd and rem:
            shift = len(rem) - 1 - dd
            factor = rem[-1] / lead
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = format_rational(c) if i == 0 else (
                f"{format_rational(c)}*m" if i == 1 else f"{format_rational(c)}*m^{i}")
            parts.append(term)
        return "Poly(" + " + ".join(parts) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


class RatFunc:
    """Rational function in one formal variable m.

    Stored reduced: numerator and denominator coprime, denominator monic and
    never the zero polynomial.  All four field operations are supported, with
    ints and Fractions coerced to constants, so formulas written for numeric
    inputs evaluate unchanged over rational functions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=Poly(), den=Poly((1,))):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree() > 0:
            num, den = num // g, den // g
        lead = den.leading()
        if lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls(Poly.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eval(self, m0: Scalar) -> Fraction:
        """Exact evaluation; a vanishing denominator is a genuine pole."""
        m0 = Fraction(m0)
        dv = self.den(m0)
        if dv == 0:
            raise ZeroDivisionError(f"pole at m = {format_rational(m0)}")
        return self.num(m0) / dv

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
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

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == Poly((1,)):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """True iff f - g is identically zero, by cross-multiplied polynomial identity."""
    return f.num * g.den == g.num * f.den
