"""Exact scalars: arbitrary-precision rationals and univariate rational functions.

The scalar type of the whole package is ``fractions.Fraction``, which already
guarantees the canonical form we need (positive denominator, gcd one).  On top
of it this module provides dense univariate polynomials and rational functions
in one formal variable m, normalized so that numerator and denominator are
coprime and the denominator is monic.  Equality of rational functions is
decided by cross-multiplication, never by sampling.

Polynomials show ``Fraction`` coefficients, but their products, division with
remainder and gcds run on Python ints over a common denominator (integer
convolution; pseudo-division; a primitive remainder sequence for the gcd), and
each output coefficient becomes a ``Fraction`` once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
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
        (a, da), (b, db) = _integral(self), _integral(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, da * db)

    def scale(self, c: Scalar) -> "Poly":
        return Poly(Fraction(c) * x for x in self.coeffs)

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        (a, da), (b, db) = _integral(self), _integral(other)
        q, r, k = _pseudo_divmod(a, b)
        # lead(b)**k * a = q * b + r over the integers; undo the scalings.
        s = b[-1] ** k * da
        return _poly([x * db for x in q], s), _poly(r, s)

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


# Integer kernels.  A polynomial enters them as (ints, den) with
# p = ints / den, ints ascending with a nonzero last entry (empty for zero);
# Fractions are made again only by ``_poly``, one per output coefficient.

def _integral(p: Poly) -> tuple[list[int], int]:
    """Integer coefficients over the common denominator of p's coefficients."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _poly(ints, den: int) -> Poly:
    return Poly(Fraction(x, den) for x in ints)


def _primitive(ints: list[int]) -> list[int]:
    content = gcd(*ints)
    return [x // content for x in ints] if content > 1 else ints


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, k) with lead(b)**k * a = q*b + r and deg r < deg b, all over the integers."""
    lead, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for shift in reversed(range(len(q))):
        c = r[shift + db]
        q = [lead * x for x in q]
        q[shift] = c
        r = [lead * x for x in r[:shift + db]]
        if c:
            for i, y in enumerate(b[:-1]):
                r[shift + i] -= c * y
    while r and not r[-1]:
        r.pop()
    return q, r, len(q)


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over the integers by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a (then the quotient is integral)."""
    q, _, k = _pseudo_divmod(a, b)
    scale = b[-1] ** k
    return [x // scale for x in q]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by a primitive remainder sequence over the integers."""
    g = _gcd_ints(_integral(a)[0], _integral(b)[0])
    return _poly(g, g[-1]) if g else Poly()


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


_ONE = Poly((1,))


class RatFunc:
    """Rational function in one formal variable m.

    Stored reduced: numerator and denominator coprime, denominator monic and
    never the zero polynomial.  All four field operations are supported, with
    ints and Fractions coerced to constants, so formulas written for numeric
    inputs evaluate unchanged over rational functions.  An operation whose
    result is reduced by construction (negation, adding a polynomial, scaling
    by a constant) skips the gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=Poly(), den=_ONE):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero():
            den = _ONE
        elif den.degree() == 0:
            num, den = num.scale(1 / den.coeffs[0]), _ONE
        else:
            (n, dn), (d, dd) = _integral(num), _integral(den)
            g = _gcd_ints(n, d)
            if len(g) > 1:
                n, d = _exact_quotient(n, g), _exact_quotient(d, g)
            # num/den = (n * dd) / (d * dn); divide both by d's leading entry.
            num, den = _poly([x * dd for x in n], dn * d[-1]), _poly(d, d[-1])
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den for coprime num and monic den, without a gcd."""
        f = object.__new__(cls)
        f.num, f.den = num, den
        return f

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls(Poly.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _constant(self):
        """The value of a constant function, else None."""
        if self.den.degree() == 0 and self.num.degree() <= 0:
            return self.num.coeffs[0] if self.num.coeffs else Fraction(0)
        return None

    def _scaled(self, c: Fraction) -> "RatFunc":
        return RatFunc._reduced(self.num.scale(c), self.den) if c else RatFunc()

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
        # n/d + p keeps gcd(n + p*d, d) = gcd(n, d) = 1.
        if o.den.degree() == 0:
            return RatFunc._reduced(self.num + o.num * self.den, self.den)
        if self.den.degree() == 0:
            return RatFunc._reduced(o.num + self.num * o.den, o.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

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
        c = o._constant()
        if c is not None:
            return self._scaled(c)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        c = o._constant()
        if c is not None:
            return self._scaled(1 / c)
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
        if self.den == _ONE:
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """True iff f - g is identically zero, by cross-multiplied polynomial identity."""
    return f.num * g.den == g.num * f.den
