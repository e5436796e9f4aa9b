from fractions import Fraction

import pytest

from conftest import rand_fraction
from grdcalc import linalg
from grdcalc.families import ClassLabel
from grdcalc.invariants import rho_zero_triples
from grdcalc.linalg import (InconsistentSystemError, LinearSystemError,
                            RankDeficientError, solve_unique)
from grdcalc.pushforward import solve_from_families


def test_over_determined_consistent_system_is_solved():
    assert solve_unique([[1, 0], [0, 1], [1, 1]], [1, 2, 3]) == [Fraction(1), Fraction(2)]


def test_inconsistent_system_names_its_witness_equation():
    # Equation 1 contradicts equation 0; equation 2 is equation 0 doubled.
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique([[1], [1], [2]], [1, 2, 2])
    assert info.value.witness == 1
    assert info.value.residue == 1
    assert str(info.value) == "equation 1 reduces to 0 = 1"


@pytest.mark.parametrize("rows, rhs, residue", [
    ([[1], [1]], [1, 4], 3),
    ([[2], [3]], [2, 9], 6),
    # x = 1/2 fixes x, and 2x = 9/2 reduces to 0 = 9/2 - 1, read in the
    # scale of its own row.
    ([[1], [2]], [Fraction(1, 2), Fraction(9, 2)], Fraction(7, 2)),
])
def test_inconsistent_system_reports_the_reduced_value(rows, rhs, residue):
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique(rows, rhs)
    assert info.value.witness == 1
    assert info.value.residue == residue
    assert str(info.value) == f"equation 1 reduces to 0 = {residue}"


def test_rank_deficient_system_lists_free_columns():
    with pytest.raises(RankDeficientError) as info:
        solve_unique([[1, 1, 0], [2, 2, 0]], [1, 2])
    assert info.value.free_columns == [1, 2]
    assert str(info.value) == "free columns [1, 2]"


@pytest.mark.parametrize("rows, detail", [
    ([[1, 0], [0, 1, 5]], "row 1 has length 3, expected 2"),
    ([[1], [0, 1]], "row 1 has length 2, expected 1"),
], ids=["longer", "shorter"])
def test_a_ragged_row_is_refused(rows, detail):
    # Read against the width of row 0, the first would lose its 5 and the
    # second would report 0 = 2.
    with pytest.raises(ValueError, match=f"^{detail}$"):
        solve_unique(rows, [1, 2])


@pytest.mark.parametrize("coefficient", [Fraction(1, 2), Fraction(2)])
def test_a_fraction_coefficient_is_refused(coefficient):
    # Only a right-hand side may be a Fraction; a coefficient must be an int,
    # even one whose value is an integer.
    with pytest.raises(ValueError, match="^row 1 has a coefficient that is not an int$"):
        solve_unique([[1, 0], [0, coefficient]], [1, 2])
    with pytest.raises(ValueError, match="^row 0 has a coefficient that is not an int$"):
        solve_unique([[coefficient]], [0])


@pytest.mark.parametrize("value", [0.1, 2.0, 0.0])
def test_a_float_is_refused(value):
    # A float right-hand side would be solved for its binary value: 0.1 as
    # 3602879701896397/36028797018963968.
    with pytest.raises(ValueError, match=f"^row 1 has a float right-hand side {value!r}, "
                                         "expected an int or a Fraction$"):
        solve_unique([[1], [1]], [Fraction(1, 10), value])
    if value:
        with pytest.raises(ValueError, match="^row 1 has a coefficient that is not an int$"):
            solve_unique([[1, 0], [0, value]], [1, 2])


@pytest.mark.parametrize("value, kind", [("a", "str"), ("1", "str"), (None, "NoneType")])
def test_a_right_hand_side_that_is_not_a_number_is_refused(value, kind):
    with pytest.raises(ValueError, match=f"^row 1 has a {kind} right-hand side {value!r}, "
                                         "expected an int or a Fraction$"):
        solve_unique([[1], [1]], [1, value])
    with pytest.raises(ValueError, match=f"^row 0 has a {kind} right-hand side"):
        solve_unique([[1]], [value])


def dense_reference(rows, rhs):
    """Dense Gauss-Jordan elimination of one system; see ``dense_outcomes``."""
    return dense_outcomes(rows, [rhs])[0]


def dense_outcomes(rows, rhss):
    """Dense Gauss-Jordan elimination with several right-hand sides.

    The pivot is the first nonzero entry at or below the current row.  The
    row operations depend on the coefficient columns alone, so one
    elimination serves every right-hand side; each then gets its own
    outcome: a contradiction (the first row below the pivot rows whose
    rhs entry is nonzero, with the value it reduces to), free columns, or
    the solution.
    """
    n = len(rows[0])
    # Zeros are kept as int 0, whose truth test is cheap.
    m = [[Fraction(x) if x else 0 for x in (*row, *(rhs[i] for rhs in rhss))]
         for i, row in enumerate(rows)]
    origin = list(range(len(m)))
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        origin[r], origin[pivot] = origin[pivot], origin[r]
        inv = 1 / m[r][col]
        prow = m[r] = [x * inv if x else x for x in m[r]]
        for i, row in enumerate(m):
            factor = row[col]
            if factor and i != r:
                m[i] = [a - factor * b if b else a for a, b in zip(row, prow)]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    outcomes = []
    for k in range(n, n + len(rhss)):
        witness = next((i for i in range(r, len(m)) if m[i][k]), None)
        if witness is not None:
            outcomes.append(InconsistentSystemError(origin[witness], Fraction(m[witness][k])))
        elif len(pivots) < n:
            outcomes.append(RankDeficientError([c for c in range(n) if c not in pivots]))
        else:
            x = [Fraction(0)] * n
            for i, p in enumerate(pivots):
                x[p] = Fraction(m[i][k])
            outcomes.append(x)
    return outcomes


def random_system(rng, entry=lambda rng: rng.randint(-9, 9), value=rand_fraction):
    """A sparse over-determined system with a planted solution; some get a
    perturbed right-hand side, some a column that depends on the others.
    ``entry`` draws each int coefficient and the scale of a dependent
    column, and ``value(rng, span)`` each entry of the planted solution, so
    only the right-hand sides carry denominators."""
    n = rng.randint(1, 6)
    n_rows = rng.randint(n, 2 * n + 2)
    rows = [[entry(rng) if rng.random() < 0.35 else 0 for _ in range(n)]
            for _ in range(n_rows)]
    kind = rng.choice(["planted", "perturbed", "deficient"])
    if kind == "deficient" and n > 1:
        a, b = rng.sample(range(n), 2)
        scale = entry(rng)
        for row in rows:
            row[a] = scale * row[b]
    x = [value(rng, 40) for _ in range(n)]
    rhs = [sum(c * xi for c, xi in zip(row, x)) for row in rows]
    if kind == "perturbed":
        i = rng.randrange(n_rows)
        rhs[i] += rng.choice([-1, 1]) * rng.randint(1, 9)
    return rows, rhs


def assert_matches_dense(rows, rhs):
    """solve_unique gives the dense reference's solution, or its witness and
    residue, or its free columns; returns the kind of outcome."""
    expected = dense_reference(rows, rhs)
    try:
        got = solve_unique(rows, rhs)
    except LinearSystemError as exc:
        got = exc
    assert type(got) is type(expected), (rows, rhs)
    if isinstance(expected, InconsistentSystemError):
        assert (got.witness, got.residue) == (expected.witness, expected.residue)
    elif isinstance(expected, RankDeficientError):
        assert got.free_columns == expected.free_columns
    else:
        assert got == expected
    return type(expected)


def _planted(rows, x):
    return [sum(c * v for c, v in zip(row, x)) for row in rows]


@pytest.mark.parametrize("rows", [
    # Column 0: row 1 is the pivot and trades places with row 0, and the
    # two share column 1.
    [[0, 1, 1], [2, 1, 0], [1, 0, 1]],
    # Column 0: row 0 clears row 1 and fills its column 1, where row 1 is
    # then the pivot.
    [[1, 1, 0], [1, 0, 1], [0, 0, 1]],
    # Column 0: row 0 clears row 1 and cancels its column 1, so the pivot
    # of column 1 is row 2.
    [[1, 1, 1], [1, 1, 0], [0, 1, 0]],
], ids=["swap-shared-columns", "fill-in", "cancellation"])
def test_column_index_follows_swaps_fill_in_and_cancellation(rows):
    x = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    assert assert_matches_dense(rows, _planted(rows, x)) is list
    assert solve_unique(rows, _planted(rows, x)) == x


def test_contradiction_after_rows_reduced_to_zero():
    # Rows 2, 3 and 4 reduce to 0 = 0; row 5 reduces to 0 = 7/2.
    rows = [[1, 0], [0, 1], [1, 1], [2, 0], [0, 0], [1, 2], [1, 1]]
    rhs = _planted(rows, [1, 2])
    rhs[5] += Fraction(7, 2)
    assert assert_matches_dense(rows, rhs) is InconsistentSystemError
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique(rows, rhs)
    assert (info.value.witness, info.value.residue) == (5, Fraction(7, 2))


def test_pivot_is_chosen_by_place_not_by_row_index():
    # Column 0's pivot is row 2, so row 0 moves to place 2.  Column 1 is
    # held by rows 0 and 1, and row 1 now stands first: it is the pivot, and
    # row 0 reduces to 0 = 1 - 2*2.  Pivoting on row 0, the smaller index,
    # would report row 1 reducing to 0 = 2 - 1/2 instead.
    rows = [[0, 2], [0, 1], [1, 0]]
    rhs = [1, 2, 0]
    assert assert_matches_dense(rows, rhs) is InconsistentSystemError
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique(rows, rhs)
    assert (info.value.witness, info.value.residue) == (0, -3)


def test_sparse_elimination_matches_dense_reference(rng):
    # Small int coefficients; the planted solutions make the right-hand
    # sides Fractions.
    outcomes = {assert_matches_dense(*random_system(rng)) for _ in range(400)}
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}


# (coefficient, planted value) draws.  The coefficients are ints, and the
# rational values reach the elimination through the right-hand sides only.
ENTRIES = {
    # Coefficients of 128 to 160 bits, as the Castelnuovo counts of the
    # pencils up to g = 120 give, and values with denominators up to 2^20.
    "big-integers": (lambda rng: rng.choice([-1, 1]) * rng.randint(2**128, 2**160),
                     lambda rng, span: Fraction(rng.randint(-span, span), rng.randint(1, 2**20))),
    "shared-denominators": (lambda rng: rng.randint(-30, 30),
                            lambda rng, span: Fraction(rng.randint(-span, span),
                                                       rng.choice([4, 6, 8, 9, 12, 18, 24, 36]))),
    "mixed-int-and-fraction": (lambda rng: rng.randint(-9, 9),
                               lambda rng, span: (rng.randint(-span, span) if rng.random() < 0.5
                                                  else rand_fraction(rng, span))),
}


@pytest.mark.parametrize("kind", ENTRIES)
def test_integer_elimination_matches_dense_reference(rng, kind):
    outcomes = {assert_matches_dense(*random_system(rng, *ENTRIES[kind])) for _ in range(300)}
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}


@pytest.mark.parametrize("span", [9, 2**130], ids=["small", "big"])
def test_int_only_systems_match_dense_reference(rng, span):
    # Every entry and every right-hand side is a plain int, which
    # solve_unique reads as it is: no entry passes through a Fraction.
    def draw(rng, _=None):
        return rng.randint(-span, span)

    systems = [random_system(rng, draw, draw) for _ in range(300)]
    assert all(type(v) is int for rows, rhs in systems for v in (*sum(rows, []), *rhs))
    outcomes = {assert_matches_dense(rows, rhs) for rows, rhs in systems}
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}


def test_family_systems_match_dense_reference(monkeypatch):
    """The systems of solve_from_families for every rho = 0 triple with
    5 <= g <= 40 and for pencils of genus 60, 90 and 120, all three labels.

    A genus has one coefficient matrix, so the reference eliminates it once
    for all the right-hand sides of that genus.
    """
    by_genus = {}

    def recording(rows, rhs):
        x = solve_unique(rows, rhs)
        matrix, rhss, solutions = by_genus.setdefault(len(rows[0]) - 2, (rows, [], []))
        assert rows == matrix
        rhss.append(rhs)
        solutions.append(x)
        return x

    monkeypatch.setattr(linalg, "solve_unique", recording)
    triples = [t for t in rho_zero_triples(120)
               if 5 <= t.g <= 40 or (t.r == 1 and t.g in (60, 90, 120))]
    for t in triples:
        for label in ClassLabel:
            solve_from_families(t.g, t.r, t.d, label)
    assert len(by_genus) == 36 + 3
    for matrix, rhss, solutions in by_genus.values():
        assert dense_outcomes(matrix, rhss) == solutions
