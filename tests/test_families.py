from fractions import Fraction

import pytest

from grdcalc.errors import PreconditionError
from grdcalc.families import (ClassLabel, genus2_dualizing_class,
                              genus2_line_bundle_class, m21_push_product,
                              marked_per_n, push_m21, push_marked, push_mogb,
                              reconstruct_push_m21, sheet_counts,
                              weierstrass_alpha, weierstrass_class,
                              weierstrass_gamma)
from grdcalc.invariants import castelnuovo_count, rho_zero_triples, vanishing_sum, xi
from grdcalc.picard import LAMBDA, PSI, DivisorClass, PicSpace, delta, reduce_m21
from conftest import rand_class, rand_fraction

M21 = PicSpace.m21()
C21 = PicSpace.c21()
N21 = castelnuovo_count(21, 6, 24)


def test_line_bundle_square_pushes_to_known_class():
    line = genus2_line_bundle_class()
    expected = DivisorClass(M21, {LAMBDA: 12, delta(0): -1, PSI: -8})
    assert m21_push_product(line, line) == expected


def test_mixed_product_pushes_to_same_class():
    line = genus2_line_bundle_class()
    expected = DivisorClass(M21, {LAMBDA: 12, delta(0): -1, PSI: -8})
    assert m21_push_product(line, genus2_dualizing_class()) == expected


def test_pulled_back_squares_push_to_zero():
    lam = DivisorClass(C21, {LAMBDA: 1})
    assert m21_push_product(lam, lam).is_zero()


def test_push_product_symmetric_bilinear(rng):
    for _ in range(120):
        x, y, z = (rand_class(rng, C21) for _ in range(3))
        assert m21_push_product(x, y) == m21_push_product(y, x)
        a = rand_fraction(rng)
        lhs = m21_push_product(x.scale(a) + y, z)
        rhs = m21_push_product(x, z).scale(a) + m21_push_product(y, z)
        assert lhs == rhs


def test_sheet_counts_sum_to_count():
    for t in rho_zero_triples(10):
        a1, a2 = sheet_counts(t.g, t.r, t.d)
        assert a1 + a2 == castelnuovo_count(t.g, t.r, t.d)


def test_sheet_counts_examples():
    assert sheet_counts(4, 1, 3) == (1, 1)
    a1, a2 = sheet_counts(21, 6, 24)
    assert a1 == Fraction(2, 5) * N21
    assert a2 == Fraction(3, 5) * N21


def test_weierstrass_values_genus_21():
    # -2 d (2g-2-d) N / (3(g-1)) with 2g-2-d = 16, and -xi N / (3(g-1)).
    assert weierstrass_alpha(21, 6, 24) == Fraction(-2 * 24 * 16, 60) * N21
    assert weierstrass_gamma(21, 6, 24) == Fraction(-312, 60) * N21


def test_weierstrass_rank_one_degeneration():
    # r = 1: the sharp index degenerates away and gamma is minus the count.
    n = castelnuovo_count(6, 1, 4)
    assert weierstrass_gamma(6, 1, 4) == -n
    assert weierstrass_alpha(6, 1, 4) == Fraction(-2 * 4 * 6, 15) * n


def test_weierstrass_guard():
    with pytest.raises(PreconditionError):
        weierstrass_alpha(4, 1, 3)  # box width 2
    with pytest.raises(PreconditionError):
        weierstrass_gamma(3, 1, 2)


def test_weierstrass_dual_routes_agree_for_small_triples():
    # The Schubert totals equal the closed forms -2d(2g-2-d)N / (3(g-1))
    # and -xi N / (3(g-1)).
    for t in rho_zero_triples(10):
        if t.g < 3 or t.d - t.r < 3:
            continue
        g, r, d = t.g, t.r, t.d
        n = castelnuovo_count(g, r, d)
        assert weierstrass_alpha(g, r, d) == Fraction(-2 * d * (2 * g - 2 - d), 3 * (g - 1)) * n
        assert weierstrass_gamma(g, r, d) == -xi(g, r, d) / (3 * (g - 1)) * n


def test_push_mogb_is_zero():
    for label in ClassLabel:
        assert push_mogb(7, 6, 12, label).is_zero()
        assert push_mogb(7, 6, 12, label).space == PicSpace.m0g(7)


def test_push_m21_beta_example():
    got = push_m21(4, 1, 3, ClassLabel.BETA)
    assert got == DivisorClass(M21, {LAMBDA: 2, delta(1): 2, PSI: -8})


def test_push_m21_gamma_rank_one():
    # xi = 3(g-1) collapses the prefactor to -N.
    n = castelnuovo_count(6, 1, 4)
    expected = weierstrass_class().scale(-n)
    assert push_m21(6, 1, 4, ClassLabel.GAMMA) == expected


def test_push_m21_is_already_reduced():
    # The family assembly reads push_m21 without reducing it modulo the
    # genus-2 relation; that is sound only because it has no delta_0 term.
    for t in rho_zero_triples(40):
        if t.g < 5:
            continue
        for label in ClassLabel:
            pushed = push_m21(t.g, t.r, t.d, label)
            assert delta(0) not in pushed.coeffs, (t, label)
            assert reduce_m21(pushed) == pushed, (t, label)


def test_reconstruction_from_sheets_and_weierstrass_fibers():
    for t in rho_zero_triples(10):
        if t.g < 3 or t.d - t.r < 3:
            continue
        for label in ClassLabel:
            assert reconstruct_push_m21(t.g, t.r, t.d, label) \
                == push_m21(t.g, t.r, t.d, label), (t, label)


def test_push_marked_alpha_is_h_independent():
    values = {push_marked(8, 3, 9, h, ClassLabel.ALPHA) for h in range(1, 8)}
    n = castelnuovo_count(8, 3, 9)
    assert values == {-81 * n}


def test_push_marked_examples():
    assert push_marked(4, 1, 3, 1, ClassLabel.GAMMA) == -4
    n = castelnuovo_count(6, 2, 6)
    assert push_marked(6, 2, 6, 2, ClassLabel.BETA) == -(2 * 4 - 1) * 6 * n


def test_push_marked_gamma_matches_vanishing_orders():
    # The gamma degree per cover degree is the sum of (a_i - d) over the
    # vanishing orders a_i at the attaching point.
    for t in rho_zero_triples(9):
        for h in range(1, t.g):
            assert marked_per_n(t.g, t.r, t.d, h, ClassLabel.GAMMA) \
                == vanishing_sum(h, t.r, t.d) - (t.r + 1) * t.d


def test_push_marked_domain():
    with pytest.raises(PreconditionError):
        push_marked(4, 1, 3, 0, ClassLabel.ALPHA)
    with pytest.raises(PreconditionError):
        push_marked(4, 1, 3, 4, ClassLabel.ALPHA)
    with pytest.raises(PreconditionError):
        push_marked(5, 1, 3, 1, ClassLabel.ALPHA)  # rho != 0


def test_push_product_refuses_a_class_on_another_space():
    with pytest.raises(PreconditionError,
                       match="^m21_push_product expects classes on c21, got m21 and c21$"):
        m21_push_product(DivisorClass(M21, {LAMBDA: 1}), genus2_dualizing_class())
