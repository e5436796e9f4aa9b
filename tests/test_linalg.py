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
    # x/3 = 1 fixes x = 3, and x/2 = 5 reduces to 0 = 5 - 3/2.
    ([[Fraction(1, 3)], [Fraction(1, 2)]], [1, 5], Fraction(7, 2)),
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


def random_system(rng, entry=lambda rng: rand_fraction(rng, 9)):
    """A sparse over-determined system with a planted solution; some get a
    perturbed right-hand side, some a column that depends on the others.
    ``entry`` draws each nonzero coefficient."""
    n = rng.randint(1, 6)
    n_rows = rng.randint(n, 2 * n + 2)
    rows = [[entry(rng) if rng.random() < 0.35 else 0 for _ in range(n)]
            for _ in range(n_rows)]
    kind = rng.choice(["planted", "perturbed", "deficient"])
    if kind == "deficient" and n > 1:
        a, b = rng.sample(range(n), 2)
        scale = rand_fraction(rng, 5)
        for row in rows:
            row[a] = scale * row[b]
    x = [rand_fraction(rng) for _ in range(n)]
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


def test_sparse_elimination_matches_dense_reference(rng):
    outcomes = {assert_matches_dense(*random_system(rng)) for _ in range(400)}
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}


ENTRIES = {
    # Numerators of 128 to 160 bits, as the Castelnuovo counts of the
    # pencils up to g = 120 give.
    "big-integers": lambda rng: Fraction(rng.choice([-1, 1]) * rng.randint(2**128, 2**160),
                                         rng.randint(1, 2**20)),
    "shared-denominators": lambda rng: Fraction(rng.randint(-30, 30),
                                                rng.choice([4, 6, 8, 9, 12, 18, 24, 36])),
    "mixed-int-and-fraction": lambda rng: (rng.randint(-9, 9) if rng.random() < 0.5
                                           else rand_fraction(rng, 9)),
}


@pytest.mark.parametrize("kind", ENTRIES)
def test_integer_elimination_matches_dense_reference(rng, kind):
    outcomes = {assert_matches_dense(*random_system(rng, ENTRIES[kind])) for _ in range(300)}
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
