from fractions import Fraction

import pytest

from math import gcd

from grdcalc.errors import PreconditionError
from grdcalc.linalg import solve_unique
from grdcalc.picard import (GENUS2_REDUCTION, GENUS2_RELATION, LAMBDA, PSI,
                            DivisorClass, PicSpace, compose, delta, epsilon,
                            epsilon_intersection_matrix, evaluate, genus2_tail_rows,
                            parse_class, pullback_i, pullback_j,
                            pullback_k, reduce_m21, restrict)
from conftest import rand_class, rand_fraction


def test_bases():
    assert PicSpace.mg1(4).basis() == (LAMBDA, PSI, "delta_0", "delta_1", "delta_2", "delta_3")
    assert PicSpace.m21().basis() == (LAMBDA, PSI, "delta_0", "delta_1")
    assert PicSpace.m0g(6).basis() == ("epsilon_2", "epsilon_3", "epsilon_4")
    assert PicSpace.c21().basis() == ("omega", "sigma", "delta", LAMBDA, PSI,
                                      "delta_0", "delta_1")


def test_space_validation():
    with pytest.raises(PreconditionError):
        PicSpace.m0g(3)
    with pytest.raises(PreconditionError, match="^symbol 'delta_2' is not in the basis of m21$"):
        DivisorClass(PicSpace.m21(), {"delta_2": 1})


def test_a_space_holds_exactly_its_basis_symbols():
    # Membership reads the name; it must agree with the basis on near misses.
    near = {"delta_", "delta_-1", "delta_01", "delta_00", "delta_+1", "delta_1 ", "delta_1_0",
            "delta_\u0663", "delta_\u00b2", "delta_" + "1" * 5000, "epsilon_", "epsilon_02",
            "omega", "sigma", "delta", "Lambda", "", 1, None}
    near |= {f"{name}_{i}" for name in ("delta", "epsilon") for i in range(14)}
    for space in (PicSpace.mg1(2), PicSpace.mg1(12), PicSpace.m21(), PicSpace.c21(),
                  PicSpace.m0g(4), PicSpace.m0g(12)):
        basis = set(space.basis())
        assert all(sym in space for sym in basis)
        assert {sym for sym in near if sym in space} == basis & near, space


def test_divisor_class_drops_zeros():
    D = DivisorClass(PicSpace.m21(), {LAMBDA: 0, PSI: Fraction(1, 2)})
    assert D.coeffs == {PSI: Fraction(1, 2)}
    assert D.get(LAMBDA) == 0


def test_pullback_i_middle_deltas():
    g = 6
    D = DivisorClass(PicSpace.mg1(g), {delta(3): 1})
    assert pullback_i(g, D) == DivisorClass(PicSpace.m0g(g), {epsilon(3): 1})


def test_pullback_i_kills_lambda_psi_delta0():
    g = 7
    space = PicSpace.mg1(g)
    for sym in (LAMBDA, PSI, delta(0)):
        assert pullback_i(g, DivisorClass(space, {sym: 1})).is_zero()


def test_pullback_i_boundary_delta_identity():
    # delta_1 + delta_{g-1} restricts to sum_i i(i-g)/(g-1) epsilon_i.
    for g in range(5, 12):
        space = PicSpace.mg1(g)
        D = DivisorClass(space, {delta(1): 1, delta(g - 1): 1})
        expected = DivisorClass(PicSpace.m0g(g), {
            epsilon(i): Fraction(i * (i - g), g - 1) for i in range(2, g - 1)})
        assert pullback_i(g, D) == expected


def test_pullback_i_requires_g_at_least_five():
    with pytest.raises(PreconditionError):
        pullback_i(4, DivisorClass.zero(PicSpace.mg1(4)))


def test_pullback_j_mappings():
    g = 8
    space = PicSpace.mg1(g)
    m21 = PicSpace.m21()
    assert pullback_j(g, DivisorClass(space, {delta(g - 1): 1})) \
        == DivisorClass(m21, {delta(1): 1})
    assert pullback_j(g, DivisorClass(space, {PSI: 1})).is_zero()
    assert pullback_j(g, DivisorClass(space, {delta(g - 2): 1})) \
        == DivisorClass(m21, {PSI: -1})
    mixed = DivisorClass(space, {LAMBDA: 2, delta(g - 2): 3})
    assert pullback_j(g, mixed) == DivisorClass(m21, {LAMBDA: 2, PSI: -3})
    for i in range(1, g - 2):
        assert pullback_j(g, DivisorClass(space, {delta(i): 1})).is_zero()


def test_pullback_k_degrees():
    g = 8
    space = PicSpace.mg1(g)
    assert pullback_k(g, 3, DivisorClass(space, {PSI: 1})) == 5
    assert pullback_k(g, 3, DivisorClass(space, {delta(3): 1})) == -1
    assert pullback_k(g, 3, DivisorClass(space, {delta(5): 1})) == 1
    assert pullback_k(g, 3, DivisorClass(space, {LAMBDA: 1})) == 0
    # Self-paired component genus: contributions on delta_{g/2} cancel.
    assert pullback_k(g, 4, DivisorClass(space, {delta(4): 1})) == 0
    with pytest.raises(PreconditionError):
        pullback_k(g, 8, DivisorClass.zero(space))


def test_pullbacks_are_linear(rng):
    m21_cases = 0
    for _ in range(120):
        g = rng.randint(5, 10)
        space = PicSpace.mg1(g)
        a, b = rand_fraction(rng), rand_fraction(rng)
        D, E = rand_class(rng, space), rand_class(rng, space)
        combo = D.scale(a) + E.scale(b)
        assert pullback_i(g, combo) == pullback_i(g, D).scale(a) + pullback_i(g, E).scale(b)
        assert pullback_j(g, combo) == pullback_j(g, D).scale(a) + pullback_j(g, E).scale(b)
        h = rng.randint(1, g - 1)
        assert pullback_k(g, h, combo) == a * pullback_k(g, h, D) + b * pullback_k(g, h, E)
        m21_cases += 1
    assert m21_cases == 120


def test_epsilon_matrix_small_genus():
    assert epsilon_intersection_matrix(6) == [
        [5, 0, 0],
        [-1, 1, 3],
        [0, -1, 2],
    ]
    assert epsilon_intersection_matrix(5) == [[4, 0], [-1, 2]]


def test_epsilon_matrix_determinant_by_cramer():
    # Without its last row and column the matrix is lower bidiagonal with
    # determinant g - 1, so by Cramer's rule the last coordinate of M x = e_last
    # is (g - 1) / det M: this pins det M = (g-1)^2 (g-4) / 2.
    for g in range(5, 31):
        e_last = [0] * (g - 4) + [1]
        x = solve_unique(epsilon_intersection_matrix(g), e_last)
        assert x[-1] == Fraction(2, (g - 1) * (g - 4)), g


def test_epsilon_matrix_general_row_pattern():
    g = 9
    m = epsilon_intersection_matrix(g)
    assert m[0] == [8, 0, 0, 0, 0, 0]
    assert m[1] == [-1, 1, 0, 0, 0, 6]
    assert m[2] == [0, -1, 1, 0, 0, 5]
    assert m[4] == [0, 0, 0, -1, 1, 3]
    assert m[5] == [0, 0, 0, 0, -1, 2]


def test_epsilon_matrix_nonsingular_range():
    for g in range(6, 31):
        assert solve_unique(epsilon_intersection_matrix(g), [0] * (g - 3)) == [0] * (g - 3)


def test_epsilon_matrix_requires_g_at_least_five():
    with pytest.raises(PreconditionError):
        epsilon_intersection_matrix(4)


def test_reduce_m21_examples():
    m21 = PicSpace.m21()
    D = DivisorClass(m21, {LAMBDA: 12, delta(0): -1, PSI: -8})
    assert reduce_m21(D) == DivisorClass(m21, {LAMBDA: 2, delta(1): 2, PSI: -8})
    assert reduce_m21(DivisorClass(m21, {delta(0): 1})) \
        == DivisorClass(m21, {LAMBDA: 10, delta(1): -2})
    lam = DivisorClass(m21, {LAMBDA: 1})
    assert reduce_m21(lam) == lam


def test_reduce_m21_idempotent_and_relation_invariant(rng):
    m21 = PicSpace.m21()
    relation = DivisorClass(m21, dict(GENUS2_RELATION))
    for _ in range(150):
        D = rand_class(rng, m21, density=0.8)
        reduced = reduce_m21(D)
        assert reduced.get(delta(0)) == 0
        assert reduce_m21(reduced) == reduced
        t = rand_fraction(rng)
        assert reduce_m21(D + relation.scale(t)) == reduced


def test_reduced_genus2_rows_compose_pullback_and_reduction(rng):
    # The assembly reads these composed rows; they must be reduce_m21 after pullback_j.
    for g in (5, 6, 9):
        rows = compose(GENUS2_REDUCTION, genus2_tail_rows(g))
        assert list(rows) == [LAMBDA, delta(1), PSI]
        for _ in range(20):
            D = rand_class(rng, PicSpace.mg1(g))
            assert DivisorClass(PicSpace.m21(), restrict(rows, D)) == reduce_m21(pullback_j(g, D))


def _canonical(D):
    """The stored form: a positive denominator coprime to nonzero int numerators."""
    assert type(D.den) is int and D.den > 0
    assert all(type(v) is int and v for v in D.nums.values())
    assert gcd(D.den, *D.nums.values()) == 1
    return D


def _ref_coeffs(rng, space):
    """A plain symbol -> Fraction reference, zeros and large denominators included."""
    draw = [lambda: 0, lambda: rng.randint(-9, 9), lambda: rand_fraction(rng),
            lambda: Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 2**40))]
    return {sym: rng.choice(draw)() for sym in space.basis() if rng.random() < 0.6}


def _ref_payload(space, ref):
    return {sym: str(ref[sym]) for sym in space.basis() if ref.get(sym)}


SPACES = [PicSpace.m21(), PicSpace.c21(), *(PicSpace.mg1(g) for g in (2, 5, 9)),
          *(PicSpace.m0g(g) for g in (4, 7))]


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_integer_class_matches_a_fraction_dict_reference(rng, space):
    basis = space.basis()
    for _ in range(60):
        a, b = _ref_coeffs(rng, space), _ref_coeffs(rng, space)
        A, B = _canonical(DivisorClass(space, a)), _canonical(DivisorClass(space, b))
        assert A.coeffs == {s: Fraction(c) for s, c in a.items() if c}
        assert [A.get(s) for s in basis] == [Fraction(a.get(s, 0)) for s in basis]
        assert A.payload() == _ref_payload(space, a)
        body = " + ".join(f"{Fraction(a[s])}*{s}" for s in basis if a.get(s))
        assert repr(A) == f"DivisorClass({space}, {body or '0'})"
        total = {s: a.get(s, 0) + b.get(s, 0) for s in basis}
        assert _canonical(A + B).coeffs == {s: c for s, c in total.items() if c}
        t = rng.choice([0, rng.randint(-5, 5), rand_fraction(rng)])
        assert _canonical(A.scale(t)).coeffs == {s: t * c for s, c in a.items() if t * c}
        # The same class from numerators over any nonzero denominator, a negative one too.
        k = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        assert _canonical(DivisorClass(space, {s: c * k for s, c in a.items()}, k)) == A
        assert (A == B) == (A.coeffs == B.coeffs)
        if a:
            sym = rng.choice(list(a))
            assert DivisorClass(space, {**a, sym: a[sym] + Fraction(1, 3)}) != A
        rows = {f"t{i}": {s: rng.choice([rng.randint(-9, 9) or 1, rand_fraction(rng) or 1])
                          for s in rng.sample(basis, rng.randint(1, len(basis)))}
                for i in range(3)}
        expected = {t: sum((w * a.get(s, 0) for s, w in row.items()), Fraction(0))
                    for t, row in rows.items()}
        assert restrict(rows, A) == expected
        assert all(evaluate(row, A) == expected[t] for t, row in rows.items())


def test_wrong_space_rejected():
    D = DivisorClass.zero(PicSpace.mg1(6))
    with pytest.raises(PreconditionError):
        reduce_m21(D)
    with pytest.raises(PreconditionError):
        pullback_i(7, D)
    E = DivisorClass.zero(PicSpace.m21())
    with pytest.raises(PreconditionError):
        pullback_j(6, E)


def test_class_addition_requires_matching_space():
    with pytest.raises(PreconditionError):
        DivisorClass.zero(PicSpace.m21()) + DivisorClass.zero(PicSpace.mg1(3))


def test_parse_class():
    space = PicSpace.mg1(8)
    D = parse_class(space, "delta_6:1, lambda:3/2")
    assert D == DivisorClass(space, {delta(6): 1, LAMBDA: Fraction(3, 2)})
    with pytest.raises(PreconditionError):
        parse_class(space, "nonsense:1")
    with pytest.raises(PreconditionError):
        parse_class(space, "lambda")
    with pytest.raises(PreconditionError, match="psi:abc"):
        parse_class(space, "lambda:1,psi:abc")
    with pytest.raises(PreconditionError, match="psi:1/0"):
        parse_class(space, "psi:1/0")


def test_parse_class_refuses_a_coefficient_with_more_digits_than_python_prints():
    # 10^4299 and 10^-4299 print with 4300 digits, the default limit; one more
    # is refused, and an exponent past twice the limit is refused unbuilt, as
    # is a digit string longer than int() reads, with the term cut in the message.
    # 25e-4300 is 1/(4*10^4298) in lowest terms.
    space = PicSpace.mg1(5)
    for text in ("psi:1e4299", "psi:1e-4299", "psi:25e-4300", "psi:1e3", "delta_0:1/2",
                 "psi:-0.25", "psi:1_0E+0_2"):
        coeff = Fraction(text.partition(":")[2])
        assert parse_class(space, text).get(text.partition(":")[0]) == coeff
    for text in ("psi:1e4300", "psi:1e-4300", "psi:3e-4300", "psi:1e8601",
                 "psi:-3e100000000", "psi:1e-1000000000000", "psi:1e" + "9" * 5000,
                 "psi:" + "7" * 4301, "psi:1/" + "7" * 4301, "psi:0." + "7" * 4301):
        with pytest.raises(PreconditionError, match="has more than 4300 digits") as info:
            parse_class(space, "lambda:1," + text)
        assert len(str(info.value)) < 120, text
