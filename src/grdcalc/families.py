"""Push-forwards of the three tautological classes over special test families.

For a triple (g, r, d) with vanishing Brill-Noether number, the space of
curves with a linear series covers the moduli space with finite fibers of
length N.  Pulling that cover back to each of three one-parameter families
(elliptic-tail curves, genus-2-tail curves, a moving marked point) makes the
fibers explicit, and the push-forwards of

    alpha = (line bundle class)^2,  beta = (line bundle class).(dualizing
    class),  gamma = first Chern class of the section bundle

become computable.  The genus-2 family needs an intersection calculus on the
universal genus-2 curve, whose classes live on ``PicSpace.c21()``, plus
Schubert integrals for the fibers over Weierstrass points.  Each quantity is
computed here along one route: the closed push-forwards in ``push_m21``, the
raw family data (sheet counts, product table, Schubert totals over the
Weierstrass fibers) in the other functions.  ``verify`` compares the two.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import PreconditionError
from .exact import quotient
from .invariants import (COVER_DEGREE, ELLIPTIC_TAIL, GENUS2_TAIL, WEIERSTRASS,
                         castelnuovo_count, xi_parts)
from .picard import LAMBDA, PSI, DivisorClass, PicSpace, delta, reduce_m21
from .schubert import GrassShape, special_power_integral


class ClassLabel(enum.Enum):
    """The three divisor classes pushed forward from the series space."""

    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"


_M21 = PicSpace.m21()
_C21 = PicSpace.c21()


def genus2_line_bundle_class() -> DivisorClass:
    """First Chern class of the universal bundle on a non-Weierstrass sheet.

    The bundle is the twist of the relative dualizing sheaf that has the
    right degrees on all components and is trivial along the marked section:
    omega - 2*sigma + delta - 3*psi pulled back.
    """
    return DivisorClass(_C21, {"omega": 1, "sigma": -2, "delta": 1, PSI: -3})


def genus2_dualizing_class() -> DivisorClass:
    """Relative dualizing class of the glued family on the genus-2 component."""
    return DivisorClass(_C21, {"omega": 1, "sigma": 1})


# The two classes ``push_m21`` is written in: the Weierstrass class
# W = 3*psi - lambda - delta_1 and T = lambda + delta_1 - 4*psi, the
# per-sheet contribution of the degree-d-ramification sheets reduced modulo
# the genus-2 relation.  Neither has a delta_0 term.
_W = {PSI: 3, LAMBDA: -1, delta(1): -1}
_T = {LAMBDA: 1, delta(1): 1, PSI: -4}


def weierstrass_class() -> DivisorClass:
    """Class of the pointed-Weierstrass divisor on m21: 3*psi - lambda - delta_1."""
    return DivisorClass(_M21, _W)


# Push-forwards of quadratic monomials along the universal genus-2 curve.
_PAIR_PUSH = {
    ("omega", "omega"): {LAMBDA: 12, delta(0): -1, delta(1): -1},
    ("sigma", "sigma"): {PSI: -1},
    ("delta", "delta"): {delta(1): -1},
    ("omega", "sigma"): {PSI: 1},
    ("omega", "delta"): {delta(1): 1},
    ("sigma", "delta"): {},
}


def m21_push_product(x: DivisorClass, y: DivisorClass) -> DivisorClass:
    """Push the product of two degree-1 classes on c21 down to m21.

    Bilinear expansion over the monomial table plus the projection formula
    for the pulled-back parts, each weighted by the other class's fiber
    degree 2*omega + sigma; the product of two pull-backs pushes to zero.
    """
    if x.space != _C21 or y.space != _C21:
        raise PreconditionError(f"m21_push_product expects classes on {_C21}, "
                                f"got {x.space} and {y.space}")
    fx, fy = (2 * c.get("omega") + c.get("sigma") for c in (x, y))
    out = {sym: fx * y.get(sym) + fy * x.get(sym) for sym in _M21.basis()}
    for (s, t), image in _PAIR_PUSH.items():
        weight = x.get(s) * y.get(t) + (x.get(t) * y.get(s) if s != t else 0)
        for sym, w in image.items():
            out[sym] += weight * w
    return DivisorClass(_M21, out)


def sheet_counts(g: int, r: int, d: int) -> tuple[Fraction, Fraction]:
    """Sheets of the series cover over a genus-2-tail family, by ramification type.

    The two maximal vanishing sequences at the attaching point support
    (2g-2-d)N/(2(g-1)) and dN/(2(g-1)) sheets respectively; they always add
    up to N.  Counts carry multiplicity, hence the Fraction type.
    """
    GENUS2_TAIL.check(g, r, d)
    n = castelnuovo_count(g, r, d)
    a1 = Fraction(2 * g - 2 - d, 2 * (g - 1)) * n
    a2 = Fraction(d, 2 * (g - 1)) * n
    return a1, a2


def weierstrass_alpha(g: int, r: int, d: int) -> Fraction:
    """Total alpha over the series with maximal ramification at a Weierstrass point.

    The Schubert integral -2(g-2) * integral(sigma_{(1,2,3,...,3)} . zeta^{g-3});
    ``push_m21`` holds the closed total, and ``verify`` compares the two.
    """
    WEIERSTRASS.check(g, r, d)
    index = (1, 2) + (3,) * (r - 1)
    return -2 * (g - 2) * special_power_integral(GrassShape(r, d), g - 3, index)


def weierstrass_gamma(g: int, r: int, d: int) -> Fraction:
    """Total gamma over the Weierstrass-point fibers.

    Minus the Schubert integrals of zeta^g and sigma_{(0,1,2,...,2,3)} . zeta^{g-2};
    ``push_m21`` holds the closed total, and ``verify`` compares the two.  For
    r = 1 the second index degenerates away (its three-term Pieri expansion is
    exactly zeta^2), leaving -integral(zeta^g) alone.
    """
    WEIERSTRASS.check(g, r, d)
    shape = GrassShape(r, d)
    total = special_power_integral(shape, g, (0,) * (r + 1))
    if r >= 2:
        index = (0, 1) + (2,) * (r - 2) + (3,)
        total += special_power_integral(shape, g - 2, index)
    return -total


def push_mogb(g: int, r: int, d: int, label: ClassLabel) -> DivisorClass:
    """Push-forward over the elliptic-tail family: identically zero.

    Every limit series on such a curve is rigid with a fixed aspect on the
    tails, so alpha, beta and gamma all vanish; kept explicit so that family
    accounting always covers all three classes.
    """
    ELLIPTIC_TAIL.check(g, r, d)
    if not isinstance(label, ClassLabel):
        raise PreconditionError("label must be a ClassLabel")
    return DivisorClass.zero(PicSpace.m0g(g))


def m21_per_n(g: int, r: int, d: int, label: ClassLabel) -> tuple[Fraction, Fraction]:
    """The coefficients (a, b) of ``push_m21`` = N*(a*W + b*T), per cover degree N.

    alpha:  a = 2d(d-2g+2)/(3(g-1)),  b = d/(g-1)
    beta:   a = 0,                    b = d/(g-1)
    gamma:  a = -xi/(3(g-1)),         b = 0,  with xi = num/e (``xi_parts``)
    N times the coefficient a of W is the closed total over the Weierstrass
    fibers, which ``verify`` compares with the Schubert totals.
    """
    if label is ClassLabel.ALPHA:
        return quotient(2 * d * (d - 2 * g + 2), 3 * (g - 1)), quotient(d, g - 1)
    if label is ClassLabel.BETA:
        return Fraction(0), quotient(d, g - 1)
    if label is ClassLabel.GAMMA:
        num, e = xi_parts(g, r, d)
        return quotient(-num, 3 * (g - 1) * e), Fraction(0)
    raise PreconditionError("label must be a ClassLabel")


def m21_coefficient(a, b, sym: str):
    """The coefficient of sym (lambda, delta_1 or psi) in a*W + b*T."""
    return a * _W[sym] + b * _T[sym]


def m21_class(a, b) -> DivisorClass:
    """a*W + b*T on m21: with no delta_0 term, it is reduced modulo the genus-2 relation."""
    return DivisorClass(_M21, {sym: m21_coefficient(a, b, sym) for sym in _W})


def push_m21(g: int, r: int, d: int, label: ClassLabel) -> DivisorClass:
    """Push-forward over the genus-2-tail family: ``m21_class`` of N times ``m21_per_n``."""
    GENUS2_TAIL.check(g, r, d)
    n = castelnuovo_count(g, r, d)
    a, b = m21_per_n(g, r, d, label)
    return m21_class(a * n, b * n)


def marked_per_n(g: int, r: int, d: int, h: int, label: ClassLabel) -> int:
    """Degree of the push-forward over the moving-marked-point family, per cover degree.

    alpha: -d^2,  beta: -(2(g-h)-1) d,  gamma: -(rh + r(r+1)/2).
    """
    if label is ClassLabel.ALPHA:
        return -d * d
    if label is ClassLabel.BETA:
        return -(2 * (g - h) - 1) * d
    if label is ClassLabel.GAMMA:
        return -(r * h + r * (r + 1) // 2)
    raise PreconditionError("label must be a ClassLabel")


def push_marked(g: int, r: int, d: int, h: int, label: ClassLabel) -> int:
    """Degree of the push-forward over the moving-marked-point family.

    The marked point moves along the genus-h component; the cover is trivial
    with N sheets, so the degree is N times ``marked_per_n``.
    """
    COVER_DEGREE.check(g, r, d)
    if not 1 <= h <= g - 1:
        raise PreconditionError(f"need 1 <= h <= g-1, got h={h}")
    return marked_per_n(g, r, d, h, label) * castelnuovo_count(g, r, d)


def reconstruct_push_m21(g: int, r: int, d: int, label: ClassLabel) -> DivisorClass:
    """Rebuild the genus-2-tail push-forward from raw family data.

    Sheet counts times the reduced per-sheet class from the universal-curve
    product table, plus the Schubert totals over the Weierstrass fibers times
    the Weierstrass class.  ``verify`` compares it with the closed ``push_m21``.
    """
    _, a2 = sheet_counts(g, r, d)
    line = genus2_line_bundle_class()
    if label is ClassLabel.ALPHA:
        per_sheet = reduce_m21(m21_push_product(line, line))
        return per_sheet.scale(a2) + weierstrass_class().scale(weierstrass_alpha(g, r, d))
    if label is ClassLabel.BETA:
        per_sheet = reduce_m21(m21_push_product(line, genus2_dualizing_class()))
        return per_sheet.scale(a2)
    if label is ClassLabel.GAMMA:
        return weierstrass_class().scale(weierstrass_gamma(g, r, d))
    raise PreconditionError("label must be a ClassLabel")

