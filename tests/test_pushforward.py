from fractions import Fraction

import pytest

from grdcalc import linalg, pushforward
from grdcalc.errors import ConsistencyError, PreconditionError
from grdcalc.families import ClassLabel
from grdcalc.invariants import castelnuovo_count, rho_zero_triples
from grdcalc.picard import (LAMBDA, PSI, DivisorClass, PicSpace, delta,
                            make_class)
from grdcalc.pushforward import (alpha, annihilated_by_elliptic_tails, beta,
                                 closed_form, combination, gamma,
                                 genus2_restriction_matches,
                                 marked_degrees_match, solve_from_families)

N21 = castelnuovo_count(21, 6, 24)


def test_alpha_genus21_coefficients():
    D = alpha(21, 6, 24)
    assert D.get(LAMBDA) == Fraction(-2100, 95) * N21
    assert D.get(delta(0)) == Fraction(343, 95) * N21
    # psi coefficient is -d^2 N / (g-1).
    assert D.get(PSI) == Fraction(-24 * 24, 20) * N21


def test_alpha_last_boundary_coefficient_well_formed():
    g, r, d = 21, 6, 24
    D = alpha(g, r, d)
    pref = Fraction(d, 6 * (g - 1) * (g - 2)) * N21
    assert D.get(delta(g - 1)) == pref * 6 * (g * d + 2 * (g - 1) * (g - d) - 2 * d)


def test_beta_genus21_coefficients():
    D = beta(21, 6, 24)
    assert D.get(LAMBDA) == Fraction(36, 5) * N21 == Fraction(684, 95) * N21
    assert D.get(delta(0)) == Fraction(-3, 5) * N21
    assert D.get(delta(20)) == 0  # (g-i-1) vanishes at i = g-1
    assert D.get(PSI) == -24 * N21


def test_gamma_genus21_coefficients():
    D = gamma(21, 6, 24)
    assert D.get(LAMBDA) == Fraction(-906, 95) * N21
    assert D.get(delta(0)) == Fraction(140, 95) * N21
    assert D.get(PSI) == Fraction(-24 * 7, 2 * 20) * N21


def test_preconditions():
    with pytest.raises(PreconditionError):
        alpha(3, 1, 2)  # rho = -1
    with pytest.raises(PreconditionError):
        alpha(2, 1, 2)  # prefactor pole
    with pytest.raises(PreconditionError):
        gamma(2, 1, 2)
    # beta is defined down to g = 2.
    assert beta(2, 1, 2).get(LAMBDA) == 12


def test_combination_quadric_coefficients():
    hodge = DivisorClass.basis_vector(PicSpace.mg1(21), LAMBDA)
    D = combination(21, 6, 24, 2, -1, -8, hodge)
    assert D.get(LAMBDA) == Fraction(2459, 95) * N21
    assert D.get(delta(0)) == Fraction(-377, 95) * N21
    assert D.get(PSI) == 0


def test_combination_pure_projection_formula():
    hodge = DivisorClass.basis_vector(PicSpace.mg1(6), LAMBDA)
    D = combination(6, 2, 6, 0, 0, 0, hodge)
    n = castelnuovo_count(6, 2, 6)
    assert D == hodge.scale(n)


def test_assembled_solution_sign_convention():
    # a*lambda - sum b_i delta_i + c*psi: the stored delta_i is -b_i.
    D = beta(8, 3, 9)
    sol = solve_from_families(8, 3, 9, ClassLabel.BETA)
    assert sol.as_divisor_class(8) == D
    assert sol.a == D.get(LAMBDA)
    assert sol.c == D.get(PSI)
    assert sol.b[0] == -D.get(delta(0))


def test_assembly_matches_closed_form_spec_cases():
    for g, r, d, label in [(8, 3, 9, ClassLabel.GAMMA), (6, 2, 6, ClassLabel.ALPHA),
                           (5, 4, 8, ClassLabel.BETA)]:
        assert solve_from_families(g, r, d, label).as_divisor_class(g) \
            == closed_form(g, r, d, label)


def test_corrupted_family_datum_names_the_contradiction(monkeypatch):
    marked_per_n = pushforward.marked_per_n
    n = castelnuovo_count(8, 3, 9)

    def corrupted(g, r, d, h, label):
        # Off by one in the degree itself, which is N times this value.
        return marked_per_n(g, r, d, h, label) + (1 / n if h == 3 else 0)

    monkeypatch.setattr(pushforward, "marked_per_n", corrupted)
    with pytest.raises(ConsistencyError) as info:
        solve_from_families(8, 3, 9, ClassLabel.GAMMA)
    # Equation 2 is the marked-point equation for h = 3.
    assert str(info.value) == "family data contradicts for (8,3,9) gamma: equation 2 reduces to 0 = 1"
    assert isinstance(info.value.__cause__, linalg.InconsistentSystemError)
    assert info.value.__cause__.witness == 2


def test_assembled_beta_psi_coefficient():
    # Adding the h and g-h marked-point equations forces c = -dN.
    sol = solve_from_families(8, 3, 9, ClassLabel.BETA)
    assert sol.c == -9 * castelnuovo_count(8, 3, 9)


def test_assembly_needs_g_at_least_five():
    with pytest.raises(PreconditionError):
        solve_from_families(4, 1, 3, ClassLabel.ALPHA)


def test_closed_forms_restrict_correctly():
    for g, r, d in [(6, 1, 4), (6, 2, 6), (8, 3, 9)]:
        for label in ClassLabel:
            assert annihilated_by_elliptic_tails(g, r, d, label)
            assert marked_degrees_match(g, r, d, label)
            assert genus2_restriction_matches(g, r, d, label)


def test_closed_forms_scale_linearly_in_count():
    # Dividing out N leaves coefficients depending on (g, r, d) alone; pin
    # the lambda and psi coefficients against direct evaluation.
    from grdcalc.invariants import xi
    for t in rho_zero_triples(9):
        if t.g < 3:
            continue
        g, r, d = t.g, t.r, t.d
        n = castelnuovo_count(g, r, d)
        assert alpha(g, r, d).get(LAMBDA) / n == \
            Fraction(d * (g * d - 2 * g * g + 8 * d - 8 * g + 4), (g - 1) * (g - 2))
        assert alpha(g, r, d).get(PSI) / n == Fraction(-d * d, g - 1)
        assert beta(g, r, d).get(LAMBDA) / n == Fraction(6 * d, g - 1)
        assert beta(g, r, d).get(PSI) / n == -d
        assert gamma(g, r, d).get(PSI) / n == Fraction(-d * (r + 1), 2 * (g - 1))
        assert gamma(g, r, d).get(LAMBDA) / n == \
            (-(g + 3) * xi(g, r, d) + 5 * r * (r + 2)) / Fraction(2 * (g - 1) * (g - 2))


def test_beta_reference_formula():
    # Independent transcription of the displayed bracket, evaluated directly.
    g, r, d = 10, 4, 12
    n = castelnuovo_count(g, r, d)
    pref = Fraction(d, 2 * (g - 1)) * n
    expected = {LAMBDA: 12 * pref, delta(0): -pref, PSI: -2 * (g - 1) * pref}
    for i in range(1, g):
        value = 4 * (g - i) * (g - i - 1) * pref
        if value:
            expected[delta(i)] = value
    assert beta(g, r, d) == make_class(PicSpace.mg1(g), expected)
