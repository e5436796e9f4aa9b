"""Exact Gaussian elimination over the rationals.

Solves possibly over-determined systems, demanding both full column rank and
consistency of every redundant equation; failure modes are reported as typed
exceptions carrying exact witnesses.  No pivot-magnitude heuristics are
needed because the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

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


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> Row:
    """Solve A x = b, requiring a unique solution satisfying every equation.

    Raises InconsistentSystemError if the (over-determined) system has no
    solution and RankDeficientError if it has more than one.

    The elimination is sparse: each augmented row is a dict holding only its
    nonzero entries, a pivot clears its column in the rows below it, and a
    row update visits only the nonzero columns of the pivot row; back
    substitution then gives the solution.  Column by column, the pivot is
    the first row at or below the current one with a nonzero entry there,
    so the row swaps, the witness equation of a contradiction (with the
    value it reduces to) and the free columns are those of dense
    Gauss-Jordan elimination.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    m: List[Dict[int, Fraction]] = []
    for row, bv in zip(rows, rhs):
        entries = {j: Fraction(x) for j, x in enumerate(row) if x}
        if bv:
            entries[n] = Fraction(bv)
        m.append(entries)
    origin = list(range(len(m)))
    pivots: List[int] = []
    r = 0
    for col in range(n + 1):
        pivot = next((i for i in range(r, len(m)) if col in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        origin[r], origin[pivot] = origin[pivot], origin[r]
        lead = m[r][col]
        # A pivot in the rhs column is an equation reduced to 0 = lead.
        if col == n:
            raise InconsistentSystemError(origin[r], lead)
        if lead != 1:
            m[r] = {j: v / lead for j, v in m[r].items()}
        prow = m[r].items()
        for i in range(r + 1, len(m)):
            target = m[i]
            if col not in target:
                continue
            factor = target[col]
            for j, v in prow:
                w = target.get(j, 0) - factor * v
                if w:
                    target[j] = w
                else:
                    del target[j]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    if len(pivots) < n:
        raise RankDeficientError([c for c in range(n) if c not in pivots])
    # Every column has a pivot, so row i is normalized with its pivot in
    # column i and nothing to the left of it: substitute back.
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = m[i].get(n, Fraction(0)) - sum(v * x[j] for j, v in m[i].items() if i < j < n)
    return x


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix by fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
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
