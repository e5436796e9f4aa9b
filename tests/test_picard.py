import re
from fractions import Fraction

import pytest

from math import gcd

from grdcalc.errors import PreconditionError
from grdcalc.linalg import solve_unique
from grdcalc.picard import (GENUS2_REDUCTION, GENUS2_RELATION, LAMBDA, PSI,
                            DivisorClass, PicSpace, compose, delta, epsilon,
                            elliptic_tail_rows, epsilon_intersection_matrix, evaluate,
                            genus2_tail_rows, marked_point_row, mg1_columns, parse_class,
                            pullback_i, pullback_j, pullback_k, reduce_m21, restrict)
from conftest import rand_class, rand_fraction


def test_bases():
    assert PicSpace.mg1(4).basis() == (LAMBDA, PSI, "delta_0", "delta_1", "delta_2", "delta_3")
    assert PicSpace.m21().basis() == (LAMBDA, PSI, "delta_0", "delta_1")
    assert PicSpace.m0g(6).basis() == ("epsilon_2", "epsilon_3", "epsilon_4")
    assert PicSpace.c21().basis() == ("omega", "sigma", "delta", LAMBDA, PSI,
                                      "delta_0", "delta_1")


def _by_symbol(g, row):
    """A row with its mg1(g) columns read back as basis symbols."""
    return {mg1_columns(g)[c]: w for c, w in row.items()}


@pytest.mark.parametrize("g", [5, 6, 9, 12])
def test_rows_key_their_mg1_sources_by_column(g):
    # mg1_columns orders the basis of mg1(g), and through it each family's
    # rows read as the restriction their docstrings state by symbol.
    order = mg1_columns(g)
    assert order == (LAMBDA, *(delta(i) for i in range(g)), PSI)
    assert sorted(order) == sorted(PicSpace.mg1(g).basis())
    for h in range(1, g):
        expected = {PSI: 2 * h - 1, delta(h): -1, delta(g - h): 1} if 2 * h != g else {PSI: g - 1}
        assert _by_symbol(g, marked_point_row(g, h)) == expected
    den = (g - 1) * (g - 2)
    # One elliptic-tail row per epsilon_i, in the order of the m0g(g) basis.
    assert len(PicSpace.m0g(g).basis()) == g - 3
    assert [_by_symbol(g, row) for row in elliptic_tail_rows(g)] == [
        {delta(i): den, delta(1): -(g - i) * (g - i - 1),
         delta(g - 1): -(g - i) * (i - 1) * (g - 1)} for i in range(2, g - 1)]
    assert {t: _by_symbol(g, row) for t, row in genus2_tail_rows(g).items()} == {
        LAMBDA: {LAMBDA: 1}, delta(0): {delta(0): 1}, PSI: {delta(g - 2): -1},
        delta(1): {delta(g - 1): 1}}


def test_space_validation():
    with pytest.raises(PreconditionError):
        PicSpace.m0g(3)
    with pytest.raises(PreconditionError, match="^symbol 'delta_2' is not in the basis of m21$"):
        DivisorClass(PicSpace.m21(), {"delta_2": 1})


def test_a_space_holds_exactly_its_basis_symbols():
    # The constructor checks symbols against the basis; near misses are refused.
    near = {"delta_", "delta_-1", "delta_01", "delta_00", "delta_+1", "delta_1 ", "delta_1_0",
            "delta_\u0663", "delta_\u00b2", "delta_" + "1" * 5000, "epsilon_", "epsilon_02",
            "omega", "sigma", "delta", "Lambda", "", 1, None}
    near |= {f"{name}_{i}" for name in ("delta", "epsilon") for i in range(14)}
    for space in (PicSpace.mg1(2), PicSpace.mg1(12), PicSpace.m21(), PicSpace.c21(),
                  PicSpace.m0g(4), PicSpace.m0g(12)):
        basis = set(space.basis())
        for sym in basis | near:
            if sym in basis:
                assert DivisorClass(space, {sym: 1}).nums == {sym: 1}
            else:
                with pytest.raises(PreconditionError) as err:
                    DivisorClass(space, {sym: 1})
                assert str(err.value) == f"symbol {sym!r} is not in the basis of {space}"


def test_a_class_refuses_a_zero_denominator():
    for coeffs in ({PSI: 1}, {}):
        with pytest.raises(PreconditionError, match="^a class needs a nonzero denominator, got 0$"):
            DivisorClass(PicSpace.m21(), coeffs, 0)


@pytest.mark.parametrize("den, shown", [(Fraction(1, 2), "Fraction(1, 2)"), (2.0, "2.0")])
def test_a_class_refuses_a_denominator_that_is_not_an_int(den, shown):
    message = f"a class needs an int denominator, got {shown}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        DivisorClass(PicSpace.m21(), {PSI: 1}, den)


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


@pytest.mark.parametrize("g", range(5, 13))
def test_pullback_i_names_the_elliptic_rows_by_the_m0g_basis(g):
    # The classes that the CLI benchmark pulls back, against the restriction
    # that elliptic_tail_rows states, read by symbol.
    texts = ["lambda:1,psi:-2", f"delta_1:3/2,delta_{g - 1}:1", f"delta_{g - 2}:2,psi:-1",
             "delta_0:1,delta_2:-1", ",".join(f"delta_{i}:{i + 1}" for i in range(g))]
    for text in texts:
        D = parse_class(PicSpace.mg1(g), text)
        expected = {epsilon(i): D.get(delta(i))
                    - Fraction((g - i) * (g - i - 1), (g - 1) * (g - 2)) * D.get(delta(1))
                    - Fraction((g - i) * (i - 1), g - 2) * D.get(delta(g - 1))
                    for i in range(2, g - 1)}
        assert pullback_i(g, D).payload() == DivisorClass(PicSpace.m0g(g), expected).payload()


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
    # Sparse rows {column: entry}: dense, [[5,0,0],[-1,1,3],[0,-1,2]] and [[4,0],[-1,2]].
    assert epsilon_intersection_matrix(6) == [
        {0: 5},
        {0: -1, 1: 1, 2: 3},
        {1: -1, 2: 2},
    ]
    assert epsilon_intersection_matrix(5) == [{0: 4}, {0: -1, 1: 2}]


def test_epsilon_matrix_determinant_by_cramer():
    # Without its last row and column the matrix is lower bidiagonal with
    # determinant g - 1, so by Cramer's rule the last coordinate of M x = e_last
    # is (g - 1) / det M: this pins det M = (g-1)^2 (g-4) / 2.  Every entry is
    # a nonzero int on a column of the matrix, as the elimination takes.
    for g in range(5, 31):
        m = epsilon_intersection_matrix(g)
        assert len(m) == g - 3
        assert all(type(c) is int and 0 <= c < g - 3 and type(v) is int and v
                   for row in m for c, v in row.items()), g
        e_last = [0] * (g - 4) + [1]
        x = solve_unique(m, e_last, g - 3)
        assert x[-1] == Fraction(2, (g - 1) * (g - 4)), g


def test_epsilon_matrix_general_row_pattern():
    g = 9
    m = epsilon_intersection_matrix(g)
    assert m[0] == {0: 8}
    assert m[1] == {0: -1, 1: 1, 5: 6}
    assert m[2] == {1: -1, 2: 1, 5: 5}
    assert m[4] == {3: -1, 4: 1, 5: 3}
    assert m[5] == {4: -1, 5: 2}


def test_epsilon_matrix_nonsingular_range():
    for g in range(6, 31):
        assert solve_unique(epsilon_intersection_matrix(g), [0] * (g - 3), g - 3) == [0] * (g - 3)


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
        # A row names a source on mg1(g) by its column of mg1_columns, and
        # on any other space by its symbol.
        sources = (dict(enumerate(mg1_columns(space.g))) if space.kind == "mg1"
                   else {s: s for s in basis})
        rows = {f"t{i}": {k: rng.choice([rng.randint(-9, 9) or 1, rand_fraction(rng) or 1])
                          for k in rng.sample(list(sources), rng.randint(1, len(basis)))}
                for i in range(3)}
        expected = {t: sum((w * a.get(sources[k], 0) for k, w in row.items()), Fraction(0))
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


def test_parse_class_reports_a_bad_coefficient_before_an_unknown_symbol():
    # Every coefficient is read before the class checks its symbols.
    space = PicSpace.mg1(5)
    for text in ("psi:x,delta_9:1", "delta_9:1,psi:x"):
        with pytest.raises(PreconditionError,
                           match="^bad coefficient in class term 'psi:x', expected a rational$"):
            parse_class(space, text)


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
