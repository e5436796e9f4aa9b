"""Brill-Noether numerology for linear series of degree d and dimension r.

Everything here is elementary arithmetic in (g, r, d): the Brill-Noether
number rho, the Castelnuovo count of series on a general curve when rho
vanishes, the coefficient xi entering the push-forward of the bundle class,
the closed push-forwards of alpha, beta and gamma per cover degree, and the
total vanishing-order identity at a point of a nodal curve.

``GrdParams`` is the one validated rho = 0 triple; the ``Domain`` constants
beside it declare each operation's extra bounds once, for its guard and for
the verification sweeps alike.
"""

from __future__ import annotations

from collections.abc import Callable
from math import factorial

from .errors import PreconditionError
from .exact import quotient
from .value import Value


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


class GrdParams(Value):
    """A triple (g, r, d) with g >= 1, r >= 0 and rho = 0: the domain of ``castelnuovo_count``."""

    __slots__ = ("g", "r", "d")

    def __init__(self, g: int, r: int, d: int):
        if g < 1 or r < 0:
            raise PreconditionError(f"need g >= 1 and r >= 0, got g={g}, r={r}")
        value = rho(g, r, d)
        if value != 0:
            raise PreconditionError(f"rho(g={g}, r={r}, d={d}) = {value}, need 0")
        self.g, self.r, self.d = g, r, d


class Domain:
    """The GrdParams one operation accepts; ``check`` refuses the first of r, g, d - r too low."""

    __slots__ = ("name", "min_g", "min_r", "min_width", "why")

    def __init__(self, name: str, min_g: int = 1, min_r: int = 0, min_width: int = 0,
                 why: str = ""):
        self.name, self.why = name, why
        self.min_g, self.min_r, self.min_width = min_g, min_r, min_width

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
ELLIPTIC_TAIL = Domain("elliptic-tail family", min_g=4,
                       why="its base m0g(g) has an empty basis below g = 4")
BETA_PUSH = Domain("beta push-forward", min_g=2, why="the prefactor 1/(g-1) has a pole")
ALPHA_GAMMA_PUSH = Domain("alpha/gamma push-forward", min_g=3,
                          why="the prefactor 1/((g-1)(g-2)) has a pole")
WEIERSTRASS = Domain("Weierstrass fibers", min_g=3, min_width=3, why="alpha integrates zeta^(g-3)")
TEST_FAMILIES = Domain("family assembly", min_g=5, why="the test-curve pull-backs need it")
SLOPE = Domain("quadric slope", min_g=3, min_r=1, why="the alpha/gamma prefactor has a pole")


def castelnuovo_count(g: int, r: int, d: int) -> int:
    """Number of series of degree d and dimension r on a general genus-g curve.

    Defined when g >= 1, r >= 0 and rho = 0.  With s = g - d + r the count
    is the classical quotient

        g!  /  prod_{i=0..r} (s+i)! / i!,

    whose denominator is the product of the hook lengths of the (r+1) x s
    box.  That product is symmetric in the two sides, so it is taken one
    factorial quotient per row of the shorter side.

    The hook-length formula makes the quotient exact, so it is an integer
    division, and the count is returned as an int: its products with the
    integer marked-point degrees stay ints, and it compares equal to, and
    multiplies exactly with, the Fractions of the other layers.
    """
    COVER_DEGREE.check(g, r, d)
    rows, cols = sorted((r + 1, g - d + r))
    hooks = 1
    for i in range(rows):
        hooks *= factorial(cols + i) // factorial(i)
    return factorial(g) // hooks


def xi_parts(g, r, d):
    """(num, e) with xi = num/e: e = g-d+2r+1 and num = 3(g-1)e + (r-1)(g+r+1)(3g-2d+r-3)."""
    e = g - d + 2 * r + 1
    if e == 0:
        raise PreconditionError("xi undefined: g - d + 2r + 1 = 0")
    return 3 * (g - 1) * e + (r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3), e


def xi(g, r, d):
    """The constant 3(g-1) + (r-1)(g+r+1)(3g-2d+r-3) / (g-d+2r+1), over any field."""
    return quotient(*xi_parts(g, r, d))


class PerCoverDegree:
    """Coefficients of a push-forward per cover degree N, as numerators over one ``den``.

    ``lam``, ``delta0`` and ``psi`` are numerators, and ``delta_i(i)`` gives delta_i's,
    1 <= i < g; each coefficient is ``quotient(numerator, den)``, divided once when read.
    Numerators and ``den`` lie in the ring of (g, r, d): ints for ints, so nothing is
    reduced until a caller divides.  ``den`` is the paper's prefactor denominator and
    each numerator its prefactor numerator times the bracket's coefficient.
    """

    __slots__ = ("den", "lam", "delta0", "psi", "delta_i")

    def __init__(self, den, lam, delta0, psi, delta_i: Callable[[int], object]):
        self.den, self.lam, self.delta0, self.psi, self.delta_i = den, lam, delta0, psi, delta_i


def alpha_per_n(g, r, d) -> PerCoverDegree:
    """Push-forward of the squared line-bundle class, per cover degree.

    d/(6(g-1)(g-2)) times
    [ 6(gd - 2g^2 + 8d - 8g + 4) lambda + (2g^2 - gd + 3g - 4d - 2) delta_0
      + 6 sum_i (g-i)(gd + 2ig - 2id - 2d) delta_i - 6d(g-2) psi ].
    """
    return PerCoverDegree(
        den=6 * (g - 1) * (g - 2),
        lam=d * 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4),
        delta0=d * (2 * g * g - g * d + 3 * g - 4 * d - 2),
        psi=d * -6 * d * (g - 2),
        delta_i=lambda i: d * 6 * (g - i) * (g * d + 2 * i * g - 2 * i * d - 2 * d))


def beta_per_n(g, r, d) -> PerCoverDegree:
    """Push-forward of (line bundle class).(dualizing class), per cover degree.

    d/(2(g-1)) times
    [ 12 lambda - delta_0 + 4 sum_i (g-i)(g-i-1) delta_i - 2(g-1) psi ].
    """
    return PerCoverDegree(
        den=2 * (g - 1),
        lam=d * 12,
        delta0=-d,
        psi=d * -2 * (g - 1),
        delta_i=lambda i: d * 4 * (g - i) * (g - i - 1))


def gamma_per_n(g, r, d) -> PerCoverDegree:
    """Push-forward of the section-bundle class, per cover degree.

    1/(2(g-1)(g-2)) times
    [ (-(g+3) xi + 5r(r+2)) lambda - d(r+1)(g-2) psi
      + (1/6)((g+1) xi - 3r(r+2)) delta_0
      + sum_i (g-i)(i xi + (g-i-2) r(r+2)) delta_i ].
    With xi = num/e (``xi_parts``), the 6 and e join the denominator 2(g-1)(g-2).
    """
    num, e = xi_parts(g, r, d)
    rr = r * (r + 2)
    return PerCoverDegree(
        den=12 * (g - 1) * (g - 2) * e,
        lam=6 * (-(g + 3) * num + 5 * rr * e),
        delta0=(g + 1) * num - 3 * rr * e,
        psi=-6 * d * (r + 1) * (g - 2) * e,
        delta_i=lambda i: 6 * (g - i) * (i * num + (g - i - 2) * rr * e))


def vanishing_sum(h: int, r: int, d: int) -> int:
    """Total vanishing order sum: (r+1)d - r(r+1)/2 - hr.

    This is the sum of the vanishing sequence of a series of degree d and
    dimension r at the attaching point of a genus-h tail, forced by the
    vanishing of the adjusted Brill-Noether number on the tail.
    """
    return (r + 1) * d - r * (r + 1) // 2 - h * r


def rho_zero_triples(g_max: int) -> list[GrdParams]:
    """All triples with 1 <= g <= g_max, r >= 1 and rho = 0.

    rho = 0 forces (r+1) | g; with s = g/(r+1) the degree d = g + r - s lies
    in [1, g + r - 1], and the xi denominator s + r + 1 is positive.
    """
    if g_max < 1:
        raise PreconditionError("g_max must be at least 1")
    return [GrdParams(g, r, g + r - g // (r + 1))
            for g in range(1, g_max + 1) for r in range(1, g) if g % (r + 1) == 0]
