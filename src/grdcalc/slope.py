"""Slope bounds for the quadric-degeneracy divisor class.

The degeneracy locus of the multiplication map from quadrics in the series
to sections of the square of the bundle has class
2*alpha - beta - (r+2)*gamma + (pulled back) lambda on the series space;
pushing it forward gives a divisor class on the moduli space whose
lambda : delta_0 ratio is compared against the conjectured lower bound
6 + 12/(g+1) for slopes of effective divisors.

The one-parameter family (g, r, d) = (m(2m+1), 2m, 2m(m+1)) keeps rho = 0
and the quadric condition divisorial in expectation; its slope gap below
the bound is a fixed rational function of m, verified here both pointwise
and as a symbolic rational-function identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import PreconditionError
from .invariants import SLOPE, alpha_per_n, beta_per_n, gamma_per_n
from .exact import Poly, RatFunc, format_rational, quotient, ratfunc_equal

# Divisoriality of the quadric locus is established only for the genus-21
# member of the family; every other report is flagged conjectural.
PROVEN_DIVISOR_TRIPLES = {(21, 6, 24)}


class SlopeReport:
    """Slope data of the pushed-forward quadric class, normalized per cover degree."""

    __slots__ = ("g", "r", "d", "lambda_coeff", "delta0_coeff", "ratio", "bound", "gap",
                 "violates", "conjectural")

    def __init__(self, g: int, r: int, d: int, lambda_coeff: Fraction, delta0_coeff: Fraction,
                 ratio: Fraction, bound: Fraction, gap: Fraction, violates: bool,
                 conjectural: bool):
        self.g, self.r, self.d = g, r, d
        self.lambda_coeff, self.delta0_coeff = lambda_coeff, delta0_coeff
        self.ratio, self.bound, self.gap = ratio, bound, gap
        self.violates, self.conjectural = violates, conjectural

    def payload(self) -> dict:
        """The report as a JSON-ready dict; rationals become ``p/q`` strings."""
        return {
            "g": self.g, "r": self.r, "d": self.d,
            "lambda": format_rational(self.lambda_coeff),
            "delta0": format_rational(self.delta0_coeff),
            "ratio": format_rational(self.ratio),
            "bound": format_rational(self.bound),
            "gap": format_rational(self.gap),
            "violates": self.violates,
            "conjectural": self.conjectural,
        }


def quadric_per_n(r, alpha, beta, gamma):
    """(lambda, delta_0) per cover degree N of 2*alpha - beta - (r+2)*gamma + lambda.

    Each argument is that push-forward's (lambda numerator, delta_0 numerator,
    denominator) per N.  They are combined over the product of the three
    denominators and divided once each, by ``quotient``; the pulled-back lambda
    adds 1 per N (projection formula).  Any field: ints give Fractions.
    """
    (a_lam, a_d0, a_den), (b_lam, b_d0, b_den), (c_lam, c_d0, c_den) = alpha, beta, gamma
    ab = a_den * b_den
    den = ab * c_den
    # Over den, each class's numerator is weighted by its factor and the other two denominators.
    wa, wb, wc = 2 * b_den * c_den, a_den * c_den, (r + 2) * ab
    return (quotient(wa * a_lam - wb * b_lam - wc * c_lam + den, den),
            quotient(wa * a_d0 - wb * b_d0 - wc * c_d0, den))


def ratio_bound_gap(g, lam, d0):
    """ratio = lambda/(-delta_0), bound = 6 + 12/(g+1), gap = bound - ratio; any field.

    The bound is one quotient, (6g + 18)/(g + 1).
    """
    ratio = lam / -d0
    bound = quotient(6 * g + 18, g + 1)
    return ratio, bound, bound - ratio


def slope_report(g: int, r: int, d: int) -> SlopeReport:
    """Slope of the quadric divisor against the conjectured bound 6 + 12/(g+1).

    The slope is taken as the ratio of the lambda coefficient to the negated
    delta_0 coefficient; classes on the interior plus the irreducible-nodal
    locus are governed by this pair alone, so coefficients of psi and of
    delta_i for i >= 1 play no role here.  ``violates`` additionally
    requires the delta_0 coefficient to sit on the effective side (positive
    b_0).
    """
    SLOPE.check(g, r, d)
    lam, d0 = quadric_lambda_delta0(g, r, d)
    if d0 == 0:
        raise PreconditionError(f"slope undefined: delta_0 coefficient vanishes for ({g},{r},{d})")
    ratio, bound, gap = ratio_bound_gap(g, lam, d0)
    return SlopeReport(
        g=g, r=r, d=d,
        lambda_coeff=lam,
        delta0_coeff=d0,
        ratio=ratio,
        bound=bound,
        gap=gap,
        violates=(ratio < bound) and (d0 < 0),
        conjectural=(g, r, d) not in PROVEN_DIVISOR_TRIPLES,
    )


def m_family_triple(m):
    """The rho = 0 family (g, r, d) = (m(2m+1), 2m, 2m(m+1)), for an int or symbolic m."""
    return (m * (2 * m + 1), 2 * m, 2 * m * (m + 1))


def m_family_report(m: int) -> SlopeReport:
    """The slope report of the member m >= 1 of the family."""
    if m < 1:
        raise PreconditionError("need m >= 1")
    return slope_report(*m_family_triple(m))


# The largest m-family sweep accepted, by `slope --sweep` and `verify --m-max`;
# its 1000 reports take about 13 ms in-process (Python 3.11, 2 vCPUs).
M_FAMILY_LIMIT = 1000


def m_family_reports(m_max: int) -> list[SlopeReport]:
    """The reports of the members m = 1 .. m_max, in order."""
    if m_max < 1:
        raise PreconditionError("need m_max >= 1")
    return [m_family_report(m) for m in range(1, m_max + 1)]


def family_gap_function() -> RatFunc:
    """Closed-form gap bound - ratio for the m-family, as a rational function.

    Numerator 36m^5 - 24m^4 - 57m^3 + 48m^2 + 3m - 6 over denominator
    16m^9 - 8m^8 - 4m^7 - 10m^6 + 23m^4 + 16m^3 + 13m^2 + 2m.
    """
    num = Poly([-6, 3, 48, -57, -24, 36])
    den = Poly([0, 2, 13, 16, 23, 0, -10, -4, -8, 16])
    return RatFunc(num, den)


def quadric_lambda_delta0(g, r, d):
    """(lambda, delta_0) coefficients of the quadric divisor per cover degree.

    The closed route: ``quadric_per_n`` of ``alpha_per_n``, ``beta_per_n``
    and ``gamma_per_n``.  Works over any field containing the rationals:
    integer inputs give Fractions, rational functions of m give the m-family
    symbolically.  Unlike ``slope_report`` it checks no preconditions.
    """
    classes = alpha_per_n(g, r, d), beta_per_n(g, r, d), gamma_per_n(g, r, d)
    return quadric_per_n(r, *((c.lam, c.delta0, c.den) for c in classes))


def family_gap_symbolic() -> RatFunc:
    """The gap of ``ratio_bound_gap`` at ``m_family_triple(RatFunc.variable())``."""
    g, r, d = m_family_triple(RatFunc.variable())
    return ratio_bound_gap(g, *quadric_lambda_delta0(g, r, d))[2]


def m_family_gap_identity(reports: Sequence[SlopeReport]) -> bool:
    """Check each m-family report's gap against the closed-form gap at its m.

    The member m is read from the report (r = 2m).  Both sides are rational
    functions of m, so agreement at 15 points (more than both degrees)
    certifies the identity: the check is a certificate only for reports of
    m = 1 .. m_max with m_max >= 15.  For fewer members (``slope --sweep 3``,
    ``verify --m-max 5``) the certificate is ``symbolic_gap_identity``.
    """
    printed = family_gap_function()
    return all(report.gap == printed.eval(report.r // 2) for report in reports)


def symbolic_gap_identity() -> bool:
    """Polynomial-identity form of the gap check."""
    return ratfunc_equal(family_gap_symbolic(), family_gap_function())
