import re
from fractions import Fraction

import pytest

from grdcalc.errors import PreconditionError
from grdcalc.exact import RatFunc, ratfunc_equal
from grdcalc.invariants import (SLOPE, GrdParams, alpha_per_n, beta_per_n, castelnuovo_count,
                                gamma_per_n)
from grdcalc.picard import LAMBDA, DivisorClass, PicSpace
from grdcalc.pushforward import combination
from grdcalc.slope import (M_FAMILY_LIMIT, family_gap_function, family_gap_symbolic,
                           m_family_gap_identity, m_family_report, m_family_reports,
                           m_family_triple, quadric_lambda_delta0, quadric_numerators,
                           quadric_per_n, ratio_bound_gap, slope_report,
                           symbolic_gap_identity)
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
    assert symbolic.eval(3) == printed.eval(3) == Fraction(95, 4147)


def test_printed_gap_is_coprime_with_no_pole_on_the_sweep():
    # eval refuses every root of the stored denominator, so the printed pair
    # must have none at the members a sweep reads (m = 0 is a root).
    printed = family_gap_function()
    num, den = printed.num.ints, printed.den.ints
    assert _gcd_degree_over_q(num, den) == 0
    assert den[0] == 0 and all(_horner(den, m) for m in range(1, M_FAMILY_LIMIT + 1))
    assert m_family_gap_identity(m_family_reports(M_FAMILY_LIMIT))


def _horner(ints, x):
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _gcd_degree_over_q(a, b):
    """Degree of gcd(a, b) over Q, by Euclid's algorithm on Fraction coefficients."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def test_generic_coefficients_match_full_pushforward():
    # The family assembly shares none of the closed forms that
    # quadric_lambda_delta0 reads; the verify row compares the two routes.
    passed, detail = check_slope_vs_assembly(12)
    assert passed, detail
    assert "(21,6,24) 2459/377" in detail
    assert detail.endswith("4 pencils agree")


def _quadric_class_per_n(g, r, d):
    # Every coefficient of the quadric class per N, by symbol: quadric_per_n of
    # the closed forms, each coefficient but lambda's read through the delta_0
    # slot, which takes any coefficient as it is.
    classes = alpha_per_n(g, r, d), beta_per_n(g, r, d), gamma_per_n(g, r, d)

    def per_n(read):
        return quadric_per_n(r, *((c.lam, read(c), c.den) for c in classes))

    lam, d0, den = per_n(lambda c: c.delta0)
    out = {"lambda": Fraction(lam, den), "delta_0": Fraction(d0, den),
           "psi": Fraction(per_n(lambda c: c.psi)[1], den)}
    for i in range(1, g):
        out[f"delta_{i}"] = Fraction(per_n(lambda c: c.delta_i(i))[1], den)
    return out


def test_the_quadric_class_per_n_is_the_pushed_forward_combination():
    # The helper above against 2 alpha - beta - (r+2) gamma + lambda, pushed
    # forward whole and divided by N.
    for g, r, d in [(3, 2, 4), (6, 1, 4), m_family_triple(2), (12, 3, 12)]:
        space = PicSpace.mg1(g)
        pushed = combination(g, r, d, 2, -1, -(r + 2), DivisorClass(space, {LAMBDA: 1}))
        n = castelnuovo_count(g, r, d)
        assert {sym: pushed.get(sym) / n for sym in space.basis()} \
            == _quadric_class_per_n(g, r, d), (g, r, d)


def test_the_m_family_quadric_class_has_boundary_shape_c_i_g_minus_i():
    # For m = 2..40: psi = 0 and delta_i = c * i * (g - i) for every i >= 1.
    # These pin the push-forward in the code's normalisation, not the class
    # of the closure of the quadric locus.
    for m in range(2, 41):
        g, r, d = m_family_triple(m)
        per_n = _quadric_class_per_n(g, r, d)
        assert per_n["psi"] == 0, m
        c = per_n["delta_1"] / (g - 1)
        assert all(per_n[f"delta_{i}"] == c * i * (g - i) for i in range(1, g)), m
        if m == 2:
            assert (c, per_n["delta_0"]) == (Fraction(-2, 3), -1)


def test_the_elliptic_pencil_degree_of_the_quadric_class_is_one_per_n():
    # The pencil of plane cubics attached to a fixed curve meets lambda,
    # delta_0 and delta_1 with degrees 1, 12 and -1: the quadric class gives
    # 1 per N on the m-family, m = 1 being (3,2,4), the pulled-back lambda.
    for m in range(1, 41):
        g, r, d = m_family_triple(m)
        per_n = _quadric_class_per_n(g, r, d)
        assert per_n["lambda"] + 12 * per_n["delta_0"] - per_n["delta_1"] == 1, m


@pytest.mark.parametrize("triple, expected", [
    # 9 lambda - delta_0 - 4 delta_1 - 4 delta_2 on mg1(3).  For comparison,
    # Mumford's formulas on M_3 give c_1(pi_* omega^2) - c_1(Sym^2 pi_* omega)
    # = (lambda + kappa_1) - 4 lambda = 9 lambda - delta_0 - delta_1, with
    # kappa_1 = 12 lambda - delta; its pull-back to mg1(3) has delta_1 and
    # delta_2 coefficients -1, so lambda and delta_0 agree and the code's
    # class has 3 more copies of minus the pulled-back delta_1.
    ((3, 2, 4), {"lambda": 9, "delta_0": -1, "psi": 0, "delta_1": -4, "delta_2": -4}),
    # The pencil (4,1,3): -17 lambda + 2 delta_0 + 3 delta_1 + 7 delta_2 + 6 delta_3.
    ((4, 1, 3), {"lambda": -17, "delta_0": 2, "psi": 0, "delta_1": 3, "delta_2": 7,
                 "delta_3": 6}),
], ids=["3-2-4", "4-1-3"])
def test_the_quadric_class_per_n_in_low_genus(triple, expected):
    # The code's class per N, every coefficient, in its normalisation.
    assert _quadric_class_per_n(*triple) == expected


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
