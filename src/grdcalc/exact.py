"""Exact scalars: arbitrary-precision rationals and univariate rational functions.

The scalar type of the whole package is ``fractions.Fraction``, which already
guarantees the canonical form we need (positive denominator, gcd one).  On top
of it this module provides dense univariate polynomials and rational functions
in one formal variable m.  Equality of rational functions is decided by
cross-multiplication, never by sampling.

A polynomial is stored as Python ints over one positive int denominator, in
lowest terms: sums, products (integer convolution), division with remainder
(pseudo-division), gcds (a primitive remainder sequence) and evaluation run
on ints, and ``Poly.coeffs`` makes ``Fraction``s only for a reader.  A
rational function keeps the unreduced pair its arithmetic produced and
reduces it, by one gcd, when its value is first read.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError

Scalar = int | Fraction

def quotient(num, den):
    """num / den, divided once: a reduced Fraction for two ints, else in the operands' field.

    An int numerator over a rational function becomes a Fraction first, so / stays exact.
    """
    if isinstance(num, int):
        return Fraction(num, den) if isinstance(den, int) else Fraction(num) / den
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
    """Dense univariate polynomial over the rationals.

    Stored as ``ints / denom``: ``ints`` are integer coefficients in ascending
    order with trailing zeros stripped (empty for the zero polynomial, of
    degree -1), and ``denom`` is a positive int coprime to their content, so
    each polynomial has one stored form.  ``coeffs`` gives the coefficients
    as ``Fraction``s.
    """

    __slots__ = ("ints", "denom")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        denom = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (denom // c.denominator) for c in cs], denom)

    def _set(self, ints: list[int], denom: int) -> "Poly":
        """Store ints / denom in lowest terms, for any nonzero int denom."""
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(denom, *ints)
        if denom < 0:
            g = -g
        self.ints = tuple(ints) if g == 1 else tuple(x // g for x in ints)
        self.denom = denom // g
        return self

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denom) for x in self.ints)

    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.denom)

    def __call__(self, x: Scalar) -> Fraction:
        v, scale = _homogeneous(self.ints, x)
        return Fraction(v, self.denom * scale)

    def __neg__(self) -> "Poly":
        return _over([-x for x in self.ints], self.denom)

    def __add__(self, other: "Poly") -> "Poly":
        a, b, den = self.ints, other.ints, self.denom
        if den != other.denom:
            den = lcm(den, other.denom)
            a = [x * (den // self.denom) for x in a]
            b = [x * (den // other.denom) for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _over(out, den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly()
        # RatFunc pairs every scalar with the denominator 1: skip those products.
        if a == (1,) and self.denom == 1:
            return other
        if b == (1,) and other.denom == 1:
            return self
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _over(out, self.denom * other.denom)

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.ints
        q, r, k = _pseudo_divmod(self.ints, b)
        # lead(b)**k * a = q * b + r over the integers; undo the scalings.
        s = b[-1] ** k * self.denom
        return _over([x * other.denom for x in q], s), _over(r, s)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.denom == other.denom and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.ints, self.denom))

    def __repr__(self) -> str:
        terms = [format_rational(c) + ("" if i == 0 else "*m" if i == 1 else f"*m^{i}")
                 for i, c in reversed(list(enumerate(self.coeffs))) if c]
        return "Poly(" + (" + ".join(terms) or "0") + ")"


# Integer kernels, on ascending int coefficient sequences with a nonzero
# last entry (empty for zero).

def _over(ints: list[int], denom: int) -> Poly:
    """The polynomial ints / denom, for a list ints and a nonzero int denom."""
    return object.__new__(Poly)._set(ints, denom)


def _homogeneous(ints, x: Scalar) -> tuple[int, int]:
    """(v, q^n) with the polynomial ``ints`` at x = p/q equal to v / q^n.

    v is the sum of ints[i] * p^i * q^(n-i), n = len(ints) - 1, by Horner's rule on ints.
    """
    p, q = x.numerator, x.denominator
    v, qk = 0, 1
    for c in reversed(ints):
        v, qk = v * p + c * qk, qk * q
    return v, qk // q or 1


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
    g = _gcd_ints(a.ints, b.ints)
    return _over(list(g), g[-1]) if g else Poly()


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return _over([x.numerator], x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


_ONE = Poly((1,))


class RatFunc:
    """Rational function in one formal variable m.

    All four field operations are supported, with ints and Fractions
    coerced to constants, so formulas written for numeric inputs evaluate
    unchanged over rational functions.  An operation returns the
    cross-multiplied pair of its operands and computes no gcd; the pair is
    reduced once, the first time ``num``, ``den``, ``eval``, hash or repr
    reads the value, and the reduced pair is then kept.  ``num`` and ``den``
    read coprime, with ``den`` monic and never the zero polynomial.

    Unreduced degrees add up along an expression: ``family_gap_symbolic()``
    holds a pair of degrees 23/27, against 5/9 once reduced.  A caller that
    iterates on its own results (an elimination over Q(m), say) should read
    ``num`` or ``den`` between steps, so that each step starts reduced.
    """

    __slots__ = ("_num", "_den", "_lowest")

    def __init__(self, num=Poly(), den=_ONE):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        self._num, self._den, self._lowest = num, den, False

    def _read(self) -> tuple[Poly, Poly]:
        """The reduced pair: coprime, monic denominator; one gcd on the first read."""
        if not self._lowest:
            n, d = self._num, self._den
            a, b = n.ints, d.ints
            g = _gcd_ints(a, b)
            if len(g) > 1:
                a, b = _exact_quotient(a, g), _exact_quotient(b, g)
            # n/d = (a * d.denom) / (b * n.denom); divide both by b's leading entry.
            self._num = _over([x * d.denom for x in a], n.denom * b[-1])
            self._den, self._lowest = _over(list(b), b[-1]), True
        return self._num, self._den

    num = property(lambda self: self._read()[0], doc="The reduced numerator.")
    den = property(lambda self: self._read()[1], doc="The reduced, monic denominator.")

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls(Poly.variable())

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def eval(self, m0: Scalar) -> Fraction:
        """Exact evaluation of the reduced pair; a vanishing denominator is a genuine pole."""
        n, d = self._read()
        dv, dq = _homogeneous(d.ints, m0)
        if dv == 0:
            raise ZeroDivisionError(f"pole at m = {format_rational(m0)}")
        nv, nq = _homogeneous(n.ints, m0)
        # n(m0) / d(m0) = (nv / (n.denom * nq)) / (dv / (d.denom * dq))
        return Fraction(nv * d.denom * dq, dv * n.denom * nq)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        if isinstance(other, int):  # a constant c adds c * den to the numerator
            d = self._den
            return RatFunc(self._num + _over([other * x for x in d.ints], d.denom), d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self._num, self._den)

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
        if isinstance(other, int):  # a constant only scales the numerator
            return RatFunc(_over([other * x for x in self._num.ints], self._num.denom), self._den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self._num * o._den, self._den * o._num)

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
        return hash(self._read())

    def __repr__(self) -> str:
        num, den = self._read()
        return f"RatFunc({num!r})" if den == _ONE else f"RatFunc({num!r} / {den!r})"


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """True iff f - g is identically zero: the stored pairs, reduced or not, cross-multiplied."""
    return f._num * g._den == g._num * f._den
