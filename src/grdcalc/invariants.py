"""Brill-Noether numerology for linear series of degree d and dimension r.

Everything here is elementary arithmetic in (g, r, d): the Brill-Noether
number rho, the Castelnuovo count of series on a general curve when rho
vanishes, the coefficient xi entering the push-forward of the bundle class,
and the total vanishing-order identity at a point of a nodal curve.

``GrdParams`` is the one validated rho = 0 triple; the ``Domain`` constants
beside it declare each operation's extra bounds once, for its guard and for
the verification sweeps alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List

from .errors import PreconditionError
from .exact import as_field


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


@dataclass(frozen=True)
class GrdParams:
    """A triple (g, r, d) with g >= 1, r >= 0 and rho = 0: the domain of ``castelnuovo_count``."""

    g: int
    r: int
    d: int

    def __post_init__(self):
        if self.g < 1 or self.r < 0:
            raise PreconditionError(f"need g >= 1 and r >= 0, got g={self.g}, r={self.r}")
        value = rho(self.g, self.r, self.d)
        if value != 0:
            raise PreconditionError(f"rho(g={self.g}, r={self.r}, d={self.d}) = {value}, need 0")


@dataclass(frozen=True)
class Domain:
    """The GrdParams one operation accepts; ``check`` refuses the first of r, g, d - r too low."""

    name: str
    min_g: int = 1
    min_r: int = 0
    min_width: int = 0
    why: str = ""

    def _refusal(self, t: GrdParams) -> str | None:
        if t.r < self.min_r:
            return f"{self.name}: need r >= {self.min_r}, got r={t.r}"
        if t.g < self.min_g:
            return f"{self.name}: need g >= {self.min_g}, got g={t.g}; {self.why}"
        if t.d - t.r < self.min_width:
            return f"{self.name}: need box width d-r >= {self.min_width}, got {t.d - t.r}"
        return None

    def admits(self, t: GrdParams) -> bool:
        return self._refusal(t) is None

    def check(self, g: int, r: int, d: int) -> GrdParams:
        t = GrdParams(g, r, d)
        if refusal := self._refusal(t):
            raise PreconditionError(refusal)
        return t


COVER_DEGREE = Domain("cover degree")
GENUS2_TAIL = Domain("genus-2-tail family", min_g=2, why="its sheet counts divide by 2(g-1)")
BETA_PUSH = Domain("beta push-forward", min_g=2, why="the prefactor 1/(g-1) has a pole")
ALPHA_GAMMA_PUSH = Domain("alpha/gamma push-forward", min_g=3,
                          why="the prefactor 1/((g-1)(g-2)) has a pole")
WEIERSTRASS = Domain("Weierstrass fibers", min_g=3, min_width=3, why="alpha integrates zeta^(g-3)")
TEST_FAMILIES = Domain("family assembly", min_g=5, why="the test-curve pull-backs need it")
SLOPE = Domain("quadric slope", min_g=3, min_r=1, why="the alpha/gamma prefactor has a pole")


def castelnuovo_count(g: int, r: int, d: int) -> Fraction:
    """Number of series of degree d and dimension r on a general genus-g curve.

    Defined when g >= 1, r >= 0 and rho = 0; the count is the classical
    factorial quotient

        1! 2! ... r! g!  /  ( (g-d+r)! (g-d+r+1)! ... (g-d+2r)! ).

    Returned as a Fraction (always integral) so that one scalar type flows
    through every module.
    """
    COVER_DEGREE.check(g, r, d)
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
    """All triples with 1 <= g <= g_max, r >= 1 and rho = 0.

    rho = 0 forces (r+1) | g; with s = g/(r+1) the degree d = g + r - s lies
    in [1, g + r - 1], and the xi denominator s + r + 1 is positive.
    """
    if g_max < 1:
        raise PreconditionError("g_max must be at least 1")
    return [GrdParams(g, r, g + r - g // (r + 1))
            for g in range(1, g_max + 1) for r in range(1, g) if g % (r + 1) == 0]
