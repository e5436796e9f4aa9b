"""Exact Gaussian elimination over the rationals.

Solves possibly over-determined systems, demanding both full column rank and
consistency of every redundant equation; failure modes are reported as typed
exceptions carrying exact witnesses.  No pivot-magnitude heuristics are
needed because the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

Row = List[Fraction]


class LinearSystemError(Exception):
    """Base class for solver failures."""


class InconsistentSystemError(LinearSystemError):
    """The equations contradict each other.

    ``witness`` is the index of an original equation that reduced to
    0 = c with c nonzero.
    """

    def __init__(self, witness: int, residue: Fraction):
        self.witness = witness
        self.residue = residue
        super().__init__(f"equation {witness} reduces to 0 = {residue}")


class RankDeficientError(LinearSystemError):
    """The coefficient matrix does not determine every unknown.

    ``free_columns`` lists the columns that no pivot fixes.
    """

    def __init__(self, free_columns: Sequence[int]):
        self.free_columns = list(free_columns)
        super().__init__(f"free columns {self.free_columns}")


def _as_matrix(rows: Sequence[Sequence]) -> List[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def _rref(matrix: List[Row]) -> tuple[List[Row], List[int], List[int]]:
    """Reduced row echelon form.

    Returns the reduced matrix, the pivot column of each pivot row, and a map
    from pivot-row index to the original row index that produced it (used to
    attribute inconsistencies to input equations).
    """
    m = [row[:] for row in matrix]
    origin = list(range(len(m)))
    ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        origin[row], origin[pivot] = origin[pivot], origin[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots, origin


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> Row:
    """Solve A x = b, requiring a unique solution satisfying every equation.

    Raises InconsistentSystemError if the (over-determined) system has no
    solution and RankDeficientError if it has more than one.
    """
    matrix = _as_matrix(rows)
    b = [Fraction(x) for x in rhs]
    if len(matrix) != len(b):
        raise ValueError("row/rhs length mismatch")
    if not matrix:
        raise ValueError("empty system")
    n = len(matrix[0])
    aug = [row + [bv] for row, bv in zip(matrix, b)]
    reduced, pivots, origin = _rref(aug)
    # A pivot in the last (rhs) column marks a row 0 = 1.
    if pivots and pivots[-1] == n:
        bad = len(pivots) - 1
        raise InconsistentSystemError(origin[bad], reduced[bad][n])
    coeff_pivots = [p for p in pivots if p < n]
    if len(coeff_pivots) < n:
        free = [c for c in range(n) if c not in coeff_pivots]
        raise RankDeficientError(free)
    x = [Fraction(0)] * n
    for i, p in enumerate(coeff_pivots):
        x[p] = reduced[i][n]
    return x


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix by fraction elimination."""
    m = _as_matrix(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                factor = m[i][col] * inv
                m[i] = [a - factor * bb for a, bb in zip(m[i], m[col])]
    return det
