"""Brill-Noether numerology for linear series of degree d and dimension r.

Everything here is elementary arithmetic in (g, r, d): the Brill-Noether
number rho, the Castelnuovo count of series on a general curve when rho
vanishes, the coefficient xi entering the push-forward of the bundle class,
and the total vanishing-order identity at a point of a nodal curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List

from .errors import PreconditionError
from .exact import as_field


@dataclass(frozen=True)
class GrdParams:
    """A parameter triple: genus g, series dimension r, degree d."""

    g: int
    r: int
    d: int

    def __post_init__(self):
        if self.g < 1 or self.r < 0 or self.d < 1:
            raise PreconditionError(f"need g >= 1, r >= 0, d >= 1, got {self}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.g, self.r, self.d)


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


def require_rho_zero(g: int, r: int, d: int) -> None:
    value = rho(g, r, d)
    if value != 0:
        raise PreconditionError(f"rho(g={g}, r={r}, d={d}) = {value}, need 0")


def castelnuovo_count(g: int, r: int, d: int) -> Fraction:
    """Number of series of degree d and dimension r on a general genus-g curve.

    Defined when g >= 1, r >= 0 and rho = 0; the count is the classical
    factorial quotient

        1! 2! ... r! g!  /  ( (g-d+r)! (g-d+r+1)! ... (g-d+2r)! ).

    Returned as a Fraction (always integral) so that one scalar type flows
    through every module.
    """
    if g < 1 or r < 0:
        raise PreconditionError(f"need g >= 1 and r >= 0, got g={g}, r={r}")
    require_rho_zero(g, r, d)
    num = factorial(g)
    for i in range(1, r + 1):
        num *= factorial(i)
    den = 1
    for i in range(g - d + r, g - d + 2 * r + 1):
        den *= factorial(i)
    return Fraction(num, den)


def xi(g, r, d):
    """The constant 3(g-1) + (r-1)(g+r+1)(3g-2d+r-3) / (g-d+2r+1).

    Works over any field: a Fraction for integer inputs, a rational function
    for symbolic ones.
    """
    den = as_field(g - d + 2 * r + 1)
    if den == 0:
        raise PreconditionError("xi undefined: g - d + 2r + 1 = 0")
    return 3 * (g - 1) + (r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3) / den


def vanishing_sum(h: int, r: int, d: int) -> int:
    """Total vanishing order sum: (r+1)d - r(r+1)/2 - hr.

    This is the sum of the vanishing sequence of a series of degree d and
    dimension r at the attaching point of a genus-h tail, forced by the
    vanishing of the adjusted Brill-Noether number on the tail.
    """
    return (r + 1) * d - r * (r + 1) // 2 - h * r


def rho_zero_triples(g_max: int) -> List[GrdParams]:
    """All triples with 1 <= g <= g_max, r >= 1, rho = 0 and d <= g + r.

    rho = 0 forces (r+1) | g; writing s = g/(r+1) the degree is d = g + r - s.
    The xi denominator s + r + 1 is then automatically positive.
    """
    if g_max < 1:
        raise PreconditionError("g_max must be at least 1")
    out: List[GrdParams] = []
    for g in range(1, g_max + 1):
        for r in range(1, g):
            if g % (r + 1) != 0:
                continue
            s = g // (r + 1)
            d = g + r - s
            if d < 1 or d > g + r:
                continue
            if g - d + 2 * r + 1 == 0:
                continue
            assert rho(g, r, d) == 0
            out.append(GrdParams(g, r, d))
    return out
