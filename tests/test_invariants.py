import json
from fractions import Fraction

import pytest

from grdcalc.cli import main
from grdcalc.errors import PreconditionError
from grdcalc.exact import RatFunc, quotient, ratfunc_equal
from grdcalc.invariants import (GrdParams, alpha_per_n, beta_per_n, castelnuovo_count,
                                gamma_per_n, rho,
                                rho_zero_triples, vanishing_sum, xi)
from grdcalc.schubert import GrassShape, special_power_integral
from grdcalc.slope import m_family_triple

# Fixed by the factorial formula 1! 2! 6! 21! / (3! 4! ... 9!); the Pieri
# route re-derives it in the acceptance suite.
N_GENUS_21 = 1385670


def test_rho_values():
    assert rho(21, 6, 24) == 0
    assert rho(10, 4, 12) == 0
    assert rho(3, 1, 2) == -1


def test_castelnuovo_small_counts():
    assert castelnuovo_count(4, 1, 3) == 2
    assert castelnuovo_count(6, 2, 6) == 5
    assert castelnuovo_count(21, 6, 24) == N_GENUS_21


def test_castelnuovo_count_is_the_schubert_degree():
    # The same classical quotient, zeta^g on the Grassmannian, in independent code.
    for t in rho_zero_triples(120):
        assert castelnuovo_count(t.g, t.r, t.d) \
            == special_power_integral(GrassShape(t.r, t.d), t.g, (0,) * (t.r + 1)), t


def test_castelnuovo_count_is_an_int(reference):
    for g, r, d in reference.rho_zero_triples(120):
        n = castelnuovo_count(g, r, d)
        assert type(n) is int and n == reference.castelnuovo(g, r, d), (g, r, d)
    assert type(castelnuovo_count(7, 0, 0)) is int


def test_canonical_series_count_is_quick(capsys):
    # The canonical series: the count is 1, and its cost must not grow with r*g.
    code = main(["invariants", "--g", "1000", "--r", "999", "--d", "1998"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["N"] == "1"


def test_castelnuovo_requires_rho_zero():
    with pytest.raises(PreconditionError):
        castelnuovo_count(3, 1, 2)


def test_castelnuovo_requires_positive_genus():
    # rho(0, n, n) = 0, so only the genus check can refuse these.
    for n in range(1, 4):
        with pytest.raises(PreconditionError, match=r"\bg\b"):
            castelnuovo_count(0, n, n)
    for g in range(1, 6):
        assert castelnuovo_count(g, 0, 0) == 1


def test_xi_values():
    assert xi(21, 6, 24) == 312
    assert xi(4, 1, 3) == 9
    for g, d in [(5, 3), (9, 5), (13, 20)]:
        assert xi(g, 1, d) == 3 * (g - 1)


def test_xi_zero_denominator():
    with pytest.raises(PreconditionError):
        xi(1, 0, 2)


def printed_per_n(g, r, d):
    """The paper's printed forms, prefactor times bracket, as the docstrings give them.

    Per class: (lambda, delta_0, psi, delta_i), over the field of g, r, d
    (Fractions or rational functions); xi is written out here too, not read
    from the library.
    """
    x = 3 * (g - 1) + (r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3) / (g - d + 2 * r + 1)
    rr = r * (r + 2)
    pa = d / (6 * (g - 1) * (g - 2))
    pb = d / (2 * (g - 1))
    pc = 1 / (2 * (g - 1) * (g - 2))
    return {
        alpha_per_n: (pa * 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4),
                      pa * (2 * g * g - g * d + 3 * g - 4 * d - 2),
                      pa * (-6 * d * (g - 2)),
                      lambda i: pa * 6 * (g - i) * (g * d + 2 * i * g - 2 * i * d - 2 * d)),
        beta_per_n: (pb * 12, -pb, pb * (-2 * (g - 1)),
                     lambda i: pb * 4 * (g - i) * (g - i - 1)),
        gamma_per_n: (pc * (-(g + 3) * x + 5 * rr),
                      pc * ((g + 1) * x - 3 * rr) / 6,
                      pc * (-d * (r + 1) * (g - 2)),
                      lambda i: pc * (g - i) * (i * x + (g - i - 2) * rr)),
    }


def test_per_n_coefficients_equal_the_printed_prefactor_forms():
    triples = [t for t in rho_zero_triples(60) if t.g >= 3]
    assert {t.g for t in triples} >= {3, 60}
    for t in triples:
        printed = printed_per_n(Fraction(t.g), Fraction(t.r), Fraction(t.d))
        for per_n, (lam, d0, psi, delta_i) in printed.items():
            got = per_n(t.g, t.r, t.d)
            nums = [got.lam, got.delta0, got.psi] + [got.delta_i(i) for i in range(1, t.g)]
            # Nothing is divided before a value is read: ints over a positive int den.
            assert all(type(x) is int for x in [got.den, *nums]) and got.den > 0, (t, per_n)
            coeffs = [quotient(num, got.den) for num in nums]
            assert coeffs == [lam, d0, psi] + [delta_i(i) for i in range(1, t.g)], (t, per_n)
            assert all(type(c) is Fraction for c in coeffs), (t, per_n)


def test_per_n_coefficients_equal_the_printed_forms_along_the_m_family():
    # An identity of rational functions of m; delta_i at i near g too, as a
    # function of m, since each form is polynomial in i.
    g, r, d = m_family_triple(RatFunc.variable())
    for per_n, (lam, d0, psi, delta_i) in printed_per_n(g, r, d).items():
        got = per_n(g, r, d)
        for i in (1, 2, 3, g - 2, g - 1):
            assert ratfunc_equal(quotient(got.delta_i(i), got.den), delta_i(i)), (per_n, i)
        for num, b in ((got.lam, lam), (got.delta0, d0), (got.psi, psi)):
            a = quotient(num, got.den)
            assert isinstance(a, RatFunc) and ratfunc_equal(a, b), per_n


def test_vanishing_sum_values():
    assert vanishing_sum(0, 1, 1) == 1
    # Degrees relative to d: sum (a_i - d) = -r(r+1)/2 - rh.
    for h, r, d in [(1, 1, 3), (2, 6, 24), (5, 3, 9)]:
        assert vanishing_sum(h, r, d) - (r + 1) * d == -r * (r + 1) // 2 - r * h


def test_vanishing_sum_rearranges_rho():
    # rho(h, r, d) - sum(a_i - i) = 0 is exactly the defining rearrangement.
    for h in range(0, 9):
        for r in range(0, 5):
            for d in range(1, 12):
                sum_ai_minus_i = vanishing_sum(h, r, d) - r * (r + 1) // 2
                assert rho(h, r, d) - sum_ai_minus_i == 0


def test_enumerate_small():
    triples = {(t.g, t.r, t.d) for t in rho_zero_triples(4)}
    assert (4, 1, 3) in triples
    assert (4, 3, 6) in triples
    assert (2, 1, 2) in triples


def test_enumerate_reaches_headline_triples():
    triples = {(t.g, t.r, t.d) for t in rho_zero_triples(21)}
    assert (21, 6, 24) in triples
    assert (10, 4, 12) in triples


def test_enumerate_divisibility_and_bounds():
    for t in rho_zero_triples(18):
        assert rho(t.g, t.r, t.d) == 0
        assert t.g % (t.r + 1) == 0
        assert t.r >= 1
        assert 1 <= t.d <= t.g + t.r
        assert t.g - t.d + 2 * t.r + 1 != 0


def test_counts_are_positive_integers():
    for t in rho_zero_triples(14):
        n = castelnuovo_count(t.g, t.r, t.d)
        assert n.denominator == 1
        assert n > 0


def test_quadratic_family_has_rho_zero():
    for m in range(1, 21):
        assert rho(m * (2 * m + 1), 2 * m, 2 * m * (m + 1)) == 0


def test_grd_params_validation():
    with pytest.raises(PreconditionError):
        GrdParams(0, 1, 1)
    with pytest.raises(PreconditionError):
        GrdParams(1, -1, 1)
    with pytest.raises(PreconditionError):
        GrdParams(1, 0, 1)  # rho = -1
