from fractions import Fraction

import pytest

from conftest import rand_fraction
from grdcalc.linalg import (InconsistentSystemError, LinearSystemError,
                            RankDeficientError, solve_unique)


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
    """Dense Gauss-Jordan elimination: the pivot is the first nonzero entry
    at or below the current row, and a contradiction reports its value
    before the row is normalized."""
    n = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(rows, rhs)]
    origin = list(range(len(m)))
    pivots = []
    r = 0
    for col in range(n + 1):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        origin[r], origin[pivot] = origin[pivot], origin[r]
        if col == n:
            return InconsistentSystemError(origin[r], m[r][n])
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    if len(pivots) < n:
        return RankDeficientError([c for c in range(n) if c not in pivots])
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = m[i][n]
    return x


def random_system(rng):
    """A sparse over-determined system with a planted solution; some get a
    perturbed right-hand side, some a column that depends on the others."""
    n = rng.randint(1, 6)
    n_rows = rng.randint(n, 2 * n + 2)
    rows = [[rand_fraction(rng, 9) if rng.random() < 0.35 else 0 for _ in range(n)]
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


def test_sparse_elimination_matches_dense_reference(rng):
    outcomes = set()
    for _ in range(400):
        rows, rhs = random_system(rng)
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
        outcomes.add(type(expected))
    assert outcomes == {list, InconsistentSystemError, RankDeficientError}
