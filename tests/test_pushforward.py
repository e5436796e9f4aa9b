from fractions import Fraction

import pytest

from conftest import rand_class
from grdcalc import linalg, pushforward
from grdcalc.errors import ConsistencyError, PreconditionError
from grdcalc.families import ClassLabel, push_m21, push_marked
from grdcalc.invariants import castelnuovo_count, rho_zero_triples
from grdcalc.picard import (GENUS2_REDUCTION, LAMBDA, PSI, DivisorClass, PicSpace, delta,
                            evaluate, pullback_i, pullback_j, pullback_k,
                            reduce_m21)
from grdcalc.pushforward import (alpha, beta, closed_form, combination, family_equations,
                                 gamma, solve_from_families)

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
    hodge = DivisorClass(PicSpace.mg1(21), {LAMBDA: 1})
    D = combination(21, 6, 24, 2, -1, -8, hodge)
    assert D.get(LAMBDA) == Fraction(2459, 95) * N21
    assert D.get(delta(0)) == Fraction(-377, 95) * N21
    assert D.get(PSI) == 0


def test_combination_pure_projection_formula():
    hodge = DivisorClass(PicSpace.mg1(6), {LAMBDA: 1})
    D = combination(6, 2, 6, 0, 0, 0, hodge)
    n = castelnuovo_count(6, 2, 6)
    assert D == hodge.scale(n)


def test_assembled_solution_sign_convention():
    # The unknowns are the literal coefficients: delta_0 keeps its sign.
    D = beta(8, 3, 9)
    assembled = solve_from_families(8, 3, 9, ClassLabel.BETA).as_divisor_class(8)
    assert assembled == D
    assert assembled.get(delta(0)) == D.get(delta(0)) < 0


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
        return marked_per_n(g, r, d, h, label) + (Fraction(1, n) if h == 3 else 0)

    monkeypatch.setattr(pushforward, "marked_per_n", corrupted)
    with pytest.raises(ConsistencyError) as info:
        solve_from_families(8, 3, 9, ClassLabel.GAMMA)
    # Equation 2 is the marked-point equation for h = 3.
    assert str(info.value) == "family data contradicts for (8,3,9) gamma: equation 2 reduces to 0 = 1"
    assert isinstance(info.value.__cause__, linalg.InconsistentSystemError)
    assert info.value.__cause__.witness == 2


def test_assembled_beta_psi_coefficient():
    # Adding the h and g-h marked-point equations forces the psi coefficient -dN.
    assembled = solve_from_families(8, 3, 9, ClassLabel.BETA).as_divisor_class(8)
    assert assembled.get(PSI) == -9 * castelnuovo_count(8, 3, 9)


def test_missing_family_data_names_the_free_symbols(monkeypatch):
    equations = pushforward.family_equations

    def without_genus2(g, r, d, label):
        return [eq for eq in equations(g, r, d, label) if eq[0] != "genus-2"]

    monkeypatch.setattr(pushforward, "family_equations", without_genus2)
    with pytest.raises(ConsistencyError, match="leaves lambda, delta_0, delta_7 undetermined$"):
        solve_from_families(8, 3, 9, ClassLabel.GAMMA)


def test_assembly_needs_g_at_least_five():
    with pytest.raises(PreconditionError):
        solve_from_families(4, 1, 3, ClassLabel.ALPHA)


def test_closed_forms_restrict_correctly():
    for g, r, d in [(6, 1, 4), (6, 2, 6), (8, 3, 9)]:
        for label in ClassLabel:
            D = closed_form(g, r, d, label)
            for family, row, value in family_equations(g, r, d, label):
                assert evaluate(row, D) == value, family


def _by_family(equations):
    out = {"marked-point": [], "elliptic-tail": [], "genus-2": []}
    for family, row, value in equations:
        out[family].append((row, value))
    return out


REDUCED_M21 = (LAMBDA, delta(1), PSI)


@pytest.mark.parametrize("g", range(5, 13))
def test_family_equations_read_the_pullbacks(rng, g):
    # The rows are the pull-backs: on random classes they evaluate to
    # pullback_k for each h, to (g-1)(g-2) times the epsilon coefficients of
    # pullback_i (the integer rows' one denominator) and to the reduced
    # coefficients of pullback_j.
    triples = [t for t in rho_zero_triples(g) if t.g == g]
    for t in triples:
        for label in ClassLabel:
            eqs = _by_family(family_equations(g, t.r, t.d, label))
            assert [len(eqs[f]) for f in eqs] == [g - 1, g - 3, 3]
            for _ in range(3):
                D = rand_class(rng, PicSpace.mg1(g))
                assert [evaluate(row, D) for row, _ in eqs["marked-point"]] \
                    == [pullback_k(g, h, D) for h in range(1, g)]
                restricted = pullback_i(g, D)
                assert [evaluate(row, D) for row, _ in eqs["elliptic-tail"]] \
                    == [(g - 1) * (g - 2) * restricted.get(sym)
                        for sym in restricted.space.basis()]
                reduced = reduce_m21(pullback_j(g, D))
                assert [evaluate(row, D) for row, _ in eqs["genus-2"]] \
                    == [reduced.get(sym) for sym in REDUCED_M21]
            # The values are the family push-forwards.
            assert [v for _, v in eqs["marked-point"]] \
                == [push_marked(g, t.r, t.d, h, label) for h in range(1, g)]
            assert all(v == 0 for _, v in eqs["elliptic-tail"])
            target = reduce_m21(push_m21(g, t.r, t.d, label))
            assert [v for _, v in eqs["genus-2"]] == [target.get(sym) for sym in REDUCED_M21]



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
    assert beta(g, r, d) == DivisorClass(PicSpace.mg1(g), expected)


def test_no_family_row_holds_a_zero_weight():
    # solve_unique scans every entry a row names, so a zero weight is waste,
    # and it takes int coefficients only.
    assert all(w and type(w) is int for row in GENUS2_REDUCTION.values() for w in row.values())
    triples = [p for p in rho_zero_triples(30) if p.g >= 5]
    assert {p.g for p in triples} == set(range(5, 31))
    for p in triples:
        for label in ClassLabel:
            for family, row, _ in family_equations(p.g, p.r, p.d, label):
                assert all(w and type(w) is int for w in row.values()), (p, label, family, row)
