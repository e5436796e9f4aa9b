import copy
import re
from fractions import Fraction
from types import MappingProxyType

import pytest

from conftest import rand_fraction
from grdcalc import linalg
from grdcalc.families import ClassLabel
from grdcalc.invariants import rho_zero_triples
from grdcalc.linalg import (InconsistentSystemError, LinearSystemError,
                            RankDeficientError, solve_unique)
from grdcalc.pushforward import family_equations, solve_from_families


def test_over_determined_consistent_system_is_solved():
    assert solve_unique([{0: 1}, {1: 1}, {0: 1, 1: 1}], [1, 2, 3], 2) == [Fraction(1), Fraction(2)]


def test_inconsistent_system_names_its_witness_equation():
    # Equation 1 contradicts equation 0; equation 2 is equation 0 doubled.
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique([{0: 1}, {0: 1}, {0: 2}], [1, 2, 2], 1)
    assert info.value.witness == 1
    assert info.value.residue == 1
    assert str(info.value) == "equation 1 reduces to 0 = 1"


@pytest.mark.parametrize("rows, rhs, residue", [
    ([{0: 1}, {0: 1}], [1, 4], 3),
    ([{0: 2}, {0: 3}], [2, 9], 6),
    # x = 1/2 fixes x, and 2x = 9/2 reduces to 0 = 9/2 - 1, read in the
    # scale of its own row.
    ([{0: 1}, {0: 2}], [Fraction(1, 2), Fraction(9, 2)], Fraction(7, 2)),
])
def test_inconsistent_system_reports_the_reduced_value(rows, rhs, residue):
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique(rows, rhs, 1)
    assert info.value.witness == 1
    assert info.value.residue == residue
    assert str(info.value) == f"equation 1 reduces to 0 = {residue}"


def test_rank_deficient_system_lists_free_columns():
    # Column 2 is named by no row at all.
    with pytest.raises(RankDeficientError) as info:
        solve_unique([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 2], 3)
    assert info.value.free_columns == [1, 2]
    assert str(info.value) == "free columns [1, 2]"


@pytest.mark.parametrize("rows, detail", [
    ([{0: 1}, {1: 1, 2: 5}], "row 1 has column 2, outside range(2)"),
    ([{0: 1}, {-1: 1}], "row 1 has column -1, outside range(2)"),
    ([{0: 1}, {1.0: 1}], "row 1 has a float column 1.0, expected an int"),
    ([{0: 1}, {True: 1}], "row 1 has a bool column True, expected an int"),
    ([{0: 1}, {"1": 1}], "row 1 has a str column '1', expected an int"),
    ([{0: 1}, {0: 1, 1: 0}], "row 1 has a zero weight in column 1"),
], ids=["past-the-end", "negative", "float", "bool", "str", "zero-weight"])
def test_an_entry_outside_the_sparse_format_is_refused(rows, detail):
    # Read as it stands, column 2 of a 2-column system would land on the
    # right-hand side, column -1 would count as a pivot column, the float
    # and the bool would stand for column 1 by hash, and the zero weight
    # would be scanned for nothing.
    with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
        solve_unique(rows, [1, 2], 2)


@pytest.mark.parametrize("coefficient", [Fraction(1, 2), Fraction(2)])
def test_a_fraction_coefficient_is_refused(coefficient):
    # Only a right-hand side may be a Fraction; a coefficient must be an int,
    # even one whose value is an integer.
    for rows, n, i, j in (([{0: 1}, {1: coefficient}], 2, 1, 1), ([{0: coefficient}], 1, 0, 0)):
        message = f"row {i} has a Fraction weight {coefficient!r} in column {j}, expected an int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_unique(rows, [1] * len(rows), n)


@pytest.mark.parametrize("value", [0.1, 2.0, 0.0])
def test_a_float_is_refused(value):
    # A float right-hand side would be solved for its binary value: 0.1 as
    # 3602879701896397/36028797018963968.
    with pytest.raises(ValueError, match=f"^row 1 has a float right-hand side {value!r}, "
                                         "expected an int or a Fraction$"):
        solve_unique([{0: 1}, {0: 1}], [Fraction(1, 10), value], 1)
    with pytest.raises(ValueError, match=f"^row 1 has a float weight {value!r} in column 1, "
                                         "expected an int$"):
        solve_unique([{0: 1}, {1: value}], [1, 2], 2)


@pytest.mark.parametrize("value, kind", [("a", "str"), ("1", "str"), (None, "NoneType")])
def test_a_right_hand_side_that_is_not_a_number_is_refused(value, kind):
    with pytest.raises(ValueError, match=f"^row 1 has a {kind} right-hand side {value!r}, "
                                         "expected an int or a Fraction$"):
        solve_unique([{0: 1}, {0: 1}], [1, value], 1)
    with pytest.raises(ValueError, match=f"^row 0 has a {kind} right-hand side"):
        solve_unique([{0: 1}], [value], 1)


def test_every_row_is_read_before_any_is_eliminated():
    # Equation 1 contradicts equation 0, but the faulty row 2 is named.
    with pytest.raises(ValueError, match=r"^row 2 has column 1, outside range\(1\)$"):
        solve_unique([{0: 1}, {0: 1}, {0: 1, 1: 2}], [1, 2, 3], 1)
    with pytest.raises(ValueError, match="^row 2 has a zero weight in column 0$"):
        solve_unique([{0: 1}, {0: 1}, {0: 0}], [1, 2, 3], 1)
    with pytest.raises(ValueError, match="^row 2 has a float right-hand side"):
        solve_unique([{0: 1}, {0: 1}, {0: 1}], [1, 2, 3.0], 1)


def test_the_rows_are_not_changed():
    # Rows are read, never written: the family rows are built per call, but
    # a caller may solve the same rows again.
    rows = [{0: 2, 1: 4}, {0: 1, 1: 3}, {1: 6}]
    copies = [dict(row) for row in rows]
    for _ in range(2):
        assert solve_unique(rows, [Fraction(2, 3), Fraction(2, 3), 2], 2) \
            == [Fraction(-1, 3), Fraction(1, 3)]
    assert rows == copies


def _family_system(g, r, d, label):
    equations = family_equations(g, r, d, label)
    return [row for _, row, _ in equations], [value for _, _, value in equations], g + 2


def _bumped_genus2_system():
    # One genus-2 right-hand side off by 1/3: its row is scaled by 3, and
    # the solution moves (no other equation restates a genus-2 one).
    rows, rhs, n = _family_system(9, 2, 8, ClassLabel.BETA)
    rhs[-1] += Fraction(1, 3)
    return rows, rhs, n


def _content_system(bump):
    # Every row has content > 1, so each is divided before it is stored.
    rows = [{0: 2, 1: 4}, {0: 3, 1: 9}, {1: 6, 2: 12}, {0: 5, 2: 10}, {2: 4}, {0: 6, 1: 6, 2: 6}]
    rhs = _planted(rows, [Fraction(1, 2), Fraction(-2, 3), 3])
    rhs[-1] += bump
    return rows, rhs, 3


def _outcome(rows, rhs, n):
    try:
        return solve_unique(rows, rhs, n)
    except InconsistentSystemError as exc:
        return exc.witness, exc.residue


@pytest.mark.parametrize("system", [
    lambda: _family_system(9, 2, 8, ClassLabel.BETA),
    _bumped_genus2_system,
    lambda: _content_system(0),
    lambda: _content_system(Fraction(5, 7)),
], ids=["family", "family-bumped-genus2", "content", "content-contradiction"])
def test_the_caller_rows_are_read_and_never_written(system):
    # solve_unique reads a caller's row until it first changes it and keeps
    # an unchanged pivot row as it is: the caller's rows and right-hand
    # sides keep their values, and a second solve gives the same outcome.
    rows, rhs, n = system()
    assert any(type(v) is Fraction for v in rhs)
    before = copy.deepcopy((rows, rhs))
    first = _outcome(rows, rhs, n)
    assert (rows, rhs) == before
    assert _outcome(rows, rhs, n) == first
    # Read-only views of the same rows and right-hand sides: a write to any
    # of them, as to a pivot row stored without change, would raise.
    assert _outcome([MappingProxyType(row) for row in rows], tuple(rhs), n) == first
    assert (rows, rhs) == before


def dense(rows, n):
    """The dense form of sparse rows with n columns, as the references read them."""
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def dense_reference(rows, rhs):
    """Dense Gauss-Jordan elimination of one system; see ``dense_outcomes``."""
    return dense_outcomes(rows, [rhs])[0]


def dense_echelon(rows, rhss):
    """Dense Gauss-Jordan elimination with several right-hand sides.

    The pivot is the first nonzero entry at or below the current row.  The
    row operations depend on the coefficient columns alone, so one
    elimination serves every right-hand side.  Returns the pivot columns
    and, per right-hand side, None if the system has no solution, or else
    the solution whose free columns are 0.
    """
    n = len(rows[0])
    # Zeros are kept as int 0, whose truth test is cheap.
    m = [[Fraction(x) if x else 0 for x in (*row, *(rhs[i] for rhs in rhss))]
         for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
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
    solutions = []
    for k in range(n, n + len(rhss)):
        if any(m[i][k] for i in range(r, len(m))):
            solutions.append(None)
        else:
            x = [Fraction(0)] * n
            for i, p in enumerate(pivots):
                x[p] = Fraction(m[i][k])
            solutions.append(x)
    return pivots, solutions


def prefix_contradiction(rows, rhs):
    """The prefix oracle for a system with no solution: the smallest i for
    which equations 0..i have none, with b_i - a_i x for the solution x of
    equations 0..i-1 that ``dense_echelon`` gives.  A longer prefix of an
    inconsistent prefix is inconsistent, so i is found by bisection."""
    lo, hi = 0, len(rows) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if dense_echelon(rows[:mid + 1], [rhs[:mid + 1]])[1][0] is None:
            hi = mid
        else:
            lo = mid + 1
    x = dense_echelon(rows[:lo], [rhs[:lo]])[1][0] if lo else [0] * len(rows[0])
    return InconsistentSystemError(lo, Fraction(rhs[lo]) - sum(a * v for a, v in zip(rows[lo], x)))


def dense_outcomes(rows, rhss):
    """The outcome of each right-hand side by the dense reference: the
    solution, the free columns, or a contradiction named by the prefix
    oracle (``prefix_contradiction``)."""
    n = len(rows[0])
    pivots, solutions = dense_echelon(rows, rhss)
    outcomes = []
    for rhs, x in zip(rhss, solutions):
        if x is None:
            outcomes.append(prefix_contradiction(rows, rhs))
        elif len(pivots) < n:
            outcomes.append(RankDeficientError([c for c in range(n) if c not in pivots]))
        else:
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
    rows = [{j: w for j in range(n) if rng.random() < 0.35 and (w := entry(rng))}
            for _ in range(n_rows)]
    kind = rng.choice(["planted", "perturbed", "deficient"])
    if kind == "deficient" and n > 1:
        a, b = rng.sample(range(n), 2)
        scale = entry(rng)
        for row in rows:
            row.pop(a, None)
            if scale and b in row:
                row[a] = scale * row[b]
    x = [value(rng, 40) for _ in range(n)]
    rhs = _planted(rows, x)
    if kind == "perturbed":
        i = rng.randrange(n_rows)
        rhs[i] += rng.choice([-1, 1]) * rng.randint(1, 9)
    return rows, rhs, n


def assert_matches_dense(rows, rhs, n):
    """solve_unique gives the dense reference's solution, or the prefix
    oracle's witness and residue, or the dense reference's free columns;
    returns the kind of outcome."""
    expected = dense_reference(dense(rows, n), rhs)
    try:
        got = solve_unique(rows, rhs, n)
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
    return [sum(c * x[j] for j, c in row.items()) for row in rows]


@pytest.mark.parametrize("rows", [
    # Row 0 holds column 1 before row 1 holds column 0, and the two share
    # column 1: row 2, cleared by row 1, fills column 1 and is cleared
    # again by row 0, ending as the pivot row of column 2.
    [{1: 1, 2: 1}, {0: 2, 1: 1}, {0: 1, 2: 1}],
    # Row 0 clears row 1 and fills its column 1, where row 1 is then the
    # pivot row.
    [{0: 1, 1: 1}, {0: 1, 2: 1}, {2: 1}],
    # Row 0 clears row 1 and cancels its column 1, so row 1 holds column 2
    # and row 2 holds column 1.
    [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, {1: 1}],
], ids=["swap-shared-columns", "fill-in", "cancellation"])
def test_column_index_follows_swaps_fill_in_and_cancellation(rows):
    # The column index a row is filed under, its first column, moves with
    # each fill-in and cancellation of its reduction.
    x = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    assert assert_matches_dense(rows, _planted(rows, x), 3) is list
    assert solve_unique(rows, _planted(rows, x), 3) == x


def test_contradiction_after_rows_reduced_to_zero():
    # Rows 2, 3 and 4 reduce to 0 = 0; row 5 reduces to 0 = 7/2.
    rows = [{0: 1}, {1: 1}, {0: 1, 1: 1}, {0: 2}, {}, {0: 1, 1: 2}, {0: 1, 1: 1}]
    rhs = _planted(rows, [1, 2])
    rhs[5] += Fraction(7, 2)
    assert assert_matches_dense(rows, rhs, 2) is InconsistentSystemError
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique(rows, rhs, 2)
    assert (info.value.witness, info.value.residue) == (5, Fraction(7, 2))


def test_witness_is_the_first_equation_that_contradicts_those_before():
    # Equation 0 fixes y = 1/2, and equation 1 (y = 2) contradicts it:
    # 2 - 1/2.  Equation 2 only fixes x.  Dense Gauss-Jordan elimination,
    # pivoting on equation 2 for x, would have named equation 0 with 1 - 2*2.
    rows = [{1: 2}, {1: 1}, {0: 1}]
    rhs = [1, 2, 0]
    assert assert_matches_dense(rows, rhs, 2) is InconsistentSystemError
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique(rows, rhs, 2)
    assert (info.value.witness, info.value.residue) == (1, Fraction(3, 2))


def test_sparse_elimination_matches_dense_reference(rng):
    # Small int coefficients; the planted solutions make the right-hand
    # sides Fractions.
    outcomes = {assert_matches_dense(*random_system(rng)) for _ in range(400)}
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}


def test_unit_and_other_pivot_leads_match_dense_reference(rng):
    # Most weights are +-1, so most pivot rows lead with +-1 and reduce
    # without a gcd; the rest lead with |lead| > 1 and take the gcd rule.
    def entry(rng):
        return rng.choice([1, -1, 1, -1, 1, -1, 2, -3, 4, -6])

    systems = [random_system(rng, entry) for _ in range(400)]
    leads = {row[min(row)] for rows, _, _ in systems for row in rows if row}
    assert {1, -1} <= leads and any(abs(lead) > 1 for lead in leads)
    outcomes = {assert_matches_dense(*system) for system in systems}
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
    assert all(type(v) is int for rows, rhs, _ in systems
               for v in (*(w for row in rows for w in row.values()), *rhs))
    outcomes = {assert_matches_dense(*system) for system in systems}
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}


def test_family_systems_match_dense_reference(monkeypatch):
    """The systems of solve_from_families for every rho = 0 triple with
    5 <= g <= 40 and for pencils of genus 60, 90 and 120, all three labels.

    A genus has one coefficient matrix, so the reference eliminates it once
    for all the right-hand sides of that genus.
    """
    by_genus = {}

    def recording(rows, rhs, columns):
        x = solve_unique(rows, rhs, columns)
        matrix, rhss, solutions = by_genus.setdefault(columns - 2, (rows, [], []))
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
    for g, (matrix, rhss, solutions) in by_genus.items():
        assert dense_outcomes(dense(matrix, g + 2), rhss) == solutions


def test_bumped_family_systems_name_the_first_contradiction(monkeypatch, rng):
    """One family system per genus 5..20, with the right-hand side of one
    marked-point, one elliptic-tail and one genus-2 equation bumped, each
    alone and all three together, against the dense reference and the
    prefix oracle.

    A bumped marked-point equation contradicts the others, and so does an
    elliptic-tail one unless no other equation restates it; no equation
    restates a genus-2 one, so bumping it moves the solution instead.
    """
    systems = []
    monkeypatch.setattr(linalg, "solve_unique", lambda *system: systems.append(system)
                        or solve_unique(*system))
    firsts = {}
    for t in rho_zero_triples(20):
        if t.g >= 5:
            firsts.setdefault(t.g, t)
    outcomes = []  # of the elliptic-tail bumps
    for t in firsts.values():
        label = rng.choice(list(ClassLabel))
        solve_from_families(t.g, t.r, t.d, label)
        rows, rhs, n = systems.pop()
        kinds = [kind for kind, _, _ in family_equations(t.g, t.r, t.d, label)]
        bumped = [rng.choice([i for i, k in enumerate(kinds) if k == kind])
                  for kind in ("marked-point", "elliptic-tail", "genus-2")]
        outcome = []
        for chosen in [[i] for i in bumped] + [bumped]:
            b = list(rhs)
            for i in chosen:
                b[i] += rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            outcome.append(assert_matches_dense(rows, b, n))
        assert outcome[0] is outcome[3] is InconsistentSystemError
        assert outcome[2] is list
        outcomes.append(outcome[1])
    assert InconsistentSystemError in outcomes
