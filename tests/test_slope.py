import re
from fractions import Fraction

import pytest

from grdcalc import exact
from grdcalc.errors import PreconditionError
from grdcalc.exact import RatFunc, ratfunc_equal
from grdcalc.invariants import SLOPE, GrdParams
from grdcalc.slope import (family_gap_function, family_gap_symbolic,
                           m_family_gap_identity, m_family_report, m_family_reports,
                           m_family_triple, quadric_lambda_delta0, quadric_numerators,
                           ratio_bound_gap, slope_report, symbolic_gap_identity)
from grdcalc.verify import check_slope_vs_assembly, quadric_from_families


def test_family_route_genus21_coefficients():
    # The paper's headline coefficients from test-family data alone.
    assert quadric_from_families(21, 6, 24) == (Fraction(2459, 95), Fraction(-377, 95))


def test_family_route_genus10_coefficients():
    assert quadric_from_families(10, 4, 12) == (7, -1)


def test_slope_report_genus21():
    rep = slope_report(21, 6, 24)
    assert rep.lambda_coeff == Fraction(2459, 95)
    assert rep.delta0_coeff == Fraction(-377, 95)
    assert rep.ratio == Fraction(2459, 377)
    assert rep.bound == Fraction(72, 11)
    assert rep.gap == Fraction(95, 4147)
    assert rep.ratio < rep.bound
    assert rep.violates
    assert not rep.conjectural


def test_slope_report_genus10():
    rep = slope_report(10, 4, 12)
    assert rep.ratio == 7
    assert rep.bound == Fraction(78, 11)
    assert rep.violates
    assert rep.conjectural


def test_slope_report_small_triple_pinned():
    # Frozen golden values for (4,1,3): positive delta_0 coefficient, so no
    # effective-orientation violation even though a ratio exists.
    rep = slope_report(4, 1, 3)
    assert rep.lambda_coeff == -17
    assert rep.delta0_coeff == 2
    assert rep.ratio == Fraction(17, 2)
    assert rep.bound == Fraction(42, 5)
    assert not rep.violates
    assert rep.conjectural


# The slopes 17/2 at (4,1,3) (above), 47/6 at (6,1,4) and 9 at (3,2,4), the
# m = 1 member (``test_m_family_reports``), are the ones that ROADMAP.md
# attributes to classical divisors: Teixidor's theta-null divisor at g = 4,
# Eisenbud and Harris's Gieseker-Petri divisor for the pencils, and the
# hyperelliptic locus of M_3.  The tests pin what the code computes; they do
# not check those sources.
def test_slope_report_genus6_pencil_pinned():
    rep = slope_report(6, 1, 4)
    assert (rep.lambda_coeff, rep.delta0_coeff) == (Fraction(-94, 5), Fraction(12, 5))
    assert rep.ratio == Fraction(47, 6)
    assert not rep.violates


def test_pencil_quadric_class_symbolically():
    # The pencils (g, r, d) = (2s, 1, s + 1), with k = s + 1: per cover degree,
    # (lambda, delta_0) = (-(6k^2 + k - 6), k(k - 1)) / (g - 1).  delta_0 > 0,
    # so no pencil violates, and the ratio sits above the bound by
    # 2(g - 1)(g - 2) / (g(g + 1)(g + 2)).
    s = RatFunc.variable()
    k, g = s + 1, 2 * s
    lam, d0 = quadric_lambda_delta0(g, 1, k)
    assert ratfunc_equal(lam, -(6 * k * k + k - 6) / (g - 1))
    assert ratfunc_equal(d0, k * (k - 1) / (g - 1))
    gap = ratio_bound_gap(g, lam, d0)[2]
    assert ratfunc_equal(gap, -2 * (g - 1) * (g - 2) / (g * (g + 1) * (g + 2)))


def test_slope_report_requires_rho_zero():
    with pytest.raises(PreconditionError):
        slope_report(5, 1, 3)


def test_slope_report_guard_messages():
    # Each guard names its own cause; the per-N arithmetic alone would raise
    # ZeroDivisionError for (2,1,2) and "slope undefined" for (3,0,0).
    cases = [((2, 1, 2), "pole"), ((3, 0, 0), "need r >= 1"),
             ((5, 1, 3), "rho(g=5, r=1, d=3) = -1, need 0")]
    for triple, cause in cases:
        with pytest.raises(PreconditionError, match=re.escape(cause)):
            slope_report(*triple)


def test_m_family_triples():
    assert m_family_triple(1) == (3, 2, 4)
    assert m_family_triple(2) == (10, 4, 12)
    assert m_family_triple(3) == (21, 6, 24)
    with pytest.raises(PreconditionError, match="need m >= 1"):
        m_family_report(0)


def test_m_family_reports():
    assert m_family_report(2).ratio == 7
    rep3 = m_family_report(3)
    assert rep3.ratio == Fraction(2459, 377)
    assert rep3.gap == Fraction(5700, 248820)
    rep1 = m_family_report(1)
    assert rep1.gap == 0
    assert rep1.ratio == rep1.bound == 9


def test_gap_identity_pointwise():
    assert m_family_gap_identity(m_family_reports(15))


def test_gap_sign_matches_numerator_sign():
    numerator = lambda m: 36 * m**5 - 24 * m**4 - 57 * m**3 + 48 * m**2 + 3 * m - 6
    for m in range(1, 7):
        gap = m_family_report(m).gap
        num = numerator(m)
        assert (gap > 0) == (num > 0)
        assert (gap == 0) == (num == 0)


def test_symbolic_gap_equals_printed_function():
    assert symbolic_gap_identity()
    symbolic, printed = family_gap_symbolic(), family_gap_function()
    assert ratfunc_equal(symbolic, printed)
    # Both are stored reduced with a monic denominator, hence coefficient-equal.
    assert (symbolic.num, symbolic.den) == (printed.num, printed.den)


def test_gap_identity_runs_no_polynomial_gcd(monkeypatch):
    # Arithmetic over Q(m) keeps unreduced pairs and the identity
    # cross-multiplies them; one gcd runs when a reduced value is first read.
    calls = []
    gcd_ints = exact._gcd_ints
    monkeypatch.setattr(exact, "_gcd_ints", lambda a, b: calls.append(1) or gcd_ints(a, b))
    assert symbolic_gap_identity()
    assert len(calls) == 0
    symbolic = family_gap_symbolic()
    assert len(calls) == 0
    assert symbolic.num.degree() == 5
    assert len(calls) == 1
    assert symbolic.den.degree() == 9 and symbolic.eval(3) == Fraction(95, 4147)
    assert len(calls) == 1


def test_generic_coefficients_match_full_pushforward():
    # The family assembly shares none of the closed forms that
    # quadric_lambda_delta0 reads; the verify row compares the two routes.
    passed, detail = check_slope_vs_assembly(12)
    assert passed, detail
    assert "(21,6,24) 2459/377" in detail
    assert detail.endswith("4 pencils agree")


def test_generic_coefficients_work_symbolically():
    m = RatFunc.variable()
    lam, d0 = quadric_lambda_delta0(2 * m * m + m, 2 * m, 2 * m * m + 2 * m)
    for mv in (1, 2, 3, 5):
        g, r, d = m_family_triple(mv)
        lam_num, d0_num = quadric_lambda_delta0(g, r, d)
        assert lam.eval(mv) == lam_num
        assert d0.eval(mv) == d0_num


def test_slope_reports_equal_the_independent_reference(reference):
    # Every field of every admitted report up to g = 200 against the paper's
    # forms as perfbench/reference.py restates them; a zero delta_0 is refused.
    # violates reads the sign of the delta_0 numerator, which is the sign of
    # the coefficient because den > 0 on the whole SLOPE domain.
    triples = [t for t in reference.rho_zero_triples(200, g_min=3)
               if SLOPE.admits(GrdParams(*t))]
    assert len(triples) > 800
    for t in triples:
        assert quadric_numerators(*t)[2] > 0, t
        if reference.quadric_slope(*t)[1] == 0:
            with pytest.raises(PreconditionError, match="slope undefined"):
                slope_report(*t)
            continue
        rep = slope_report(*t)
        for field, value in reference.slope_expected(*t).items():
            assert getattr(rep, field) == value, (t, field)
        assert rep.violates == (rep.ratio < rep.bound and rep.delta0_coeff < 0), t
    for m in range(1, 61):
        assert m_family_report(m).gap == reference.m_family_gap(m), m


def test_ratio_bound_gap_reads_numerators_and_coefficients_alike():
    # Homogeneous of degree 0 in (lambda, delta_0): any common factor cancels.
    m = RatFunc.variable()
    for g, r, d in [(21, 6, 24), (10, 4, 12), (4, 1, 3), (6, 1, 4)]:
        lam, d0, den = quadric_numerators(g, r, d)
        triple = ratio_bound_gap(g, lam, d0)
        assert triple == ratio_bound_gap(g, *quadric_lambda_delta0(g, r, d))
        for c in (7, -3, Fraction(5, 11)):
            assert ratio_bound_gap(g, c * lam, c * d0) == triple
        # Over Q(m) the ratio and gap are RatFuncs; the bound reads g alone.
        ratio, bound, gap = ratio_bound_gap(g, (m + 2) * lam, (m + 2) * d0)
        assert ratfunc_equal(ratio, RatFunc(triple[0])) and ratfunc_equal(gap, RatFunc(triple[2]))
        assert bound == triple[1]
