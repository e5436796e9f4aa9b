"""Exact Gaussian elimination of integer systems with rational right-hand sides.

Solves possibly over-determined systems, demanding both full column rank and
consistency of every redundant equation; failure modes are reported as typed
exceptions carrying exact witnesses.  No pivot-magnitude heuristics are
needed because the arithmetic is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import gcd


class LinearSystemError(Exception):
    """Base class for solver failures."""


class InconsistentSystemError(LinearSystemError):
    """The equations contradict each other.

    ``witness`` is the first equation i that contradicts equations
    0..i-1, and ``residue`` the nonzero value b_i - a_i x it takes for any
    x solving them.
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


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve A x = b, requiring a unique solution satisfying every equation.

    Every row has len(rows[0]) entries, and the coefficients are ints; a
    right-hand side entry is an int or a Fraction.  Raises ValueError for a
    row of another length, a right-hand side of any other type (a float, a
    str, None) or a coefficient that is not an int, checking every row
    before eliminating any; InconsistentSystemError if the (over-determined)
    system has no solution and RankDeficientError if it has more than one.

    The elimination builds a fraction-free row echelon form on sparse
    integer rows, one equation after the other.  Each augmented row is read
    once: with its right-hand side p/q, the nonzero coefficients (from
    ``compress(range(n), row)``) times q and p in the rhs column make a
    dict, divided by its content, with q as its scale.  Equation i is
    reduced in its first column c by the pivot row of c: with pivot entry p
    and the row's entry t, the row becomes row * (p/g) - pivot * (t/g),
    where g is gcd(p, t) with the sign of p, divided by its content; the
    update visits only the nonzero columns of the pivot row.  It ends when
    no pivot row holds its first column (it becomes that column's pivot
    row), when only its rhs entry is left (it contradicts equations
    0..i-1) or when nothing is left (it is dropped).  The pivot columns,
    and so the free columns, do not depend on the order of the equations.

    Every integer row is a nonzero multiple of the rational row it stands
    for, and keeps that multiple as its scale, so a contradiction reports
    the value (integer residue over scale) that equation i reduces to:
    b_i - a_i x for any x solving equations 0..i-1.  Back substitution runs
    over one common integer denominator.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    columns = range(n)
    # (int row, scale numerator, scale denominator), row = scale * rational row.
    read: list[tuple[dict[int, int], int, int]] = []
    for i, (row, bv) in enumerate(zip(rows, rhs)):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        if not isinstance(bv, (int, Fraction)):
            raise ValueError(f"row {i} has a {type(bv).__name__} right-hand side {bv!r}, "
                             "expected an int or a Fraction")
        p, q = bv.as_integer_ratio()
        ints = {j: row[j] * q for j in compress(columns, row)}
        if p:
            ints[n] = p
        try:
            content = gcd(*ints.values())
        except TypeError:
            raise ValueError(f"row {i} has a coefficient that is not an int") from None
        if content > 1:
            ints = {j: v // content for j, v in ints.items()}
        read.append((ints, q, max(content, 1)))
    # pivot_rows[c]: the row whose first column is c.
    pivot_rows: dict[int, dict[int, int]] = {}
    for i, (row, num, den) in enumerate(read):
        while row:
            col = min(row)
            if col == n:
                raise InconsistentSystemError(i, Fraction(row[n] * den, num))
            pivot = pivot_rows.get(col)
            if pivot is None:
                pivot_rows[col] = row
                break
            lead = pivot[col]
            t = row[col]
            # With the sign of lead, a is positive and mostly 1: no rescale.
            g = gcd(lead, t) if lead > 0 else -gcd(lead, t)
            a, b = lead // g, t // g
            if a != 1:
                row = {j: v * a for j, v in row.items()}
                num *= a
            # Column col cancels: a * t == b * lead.
            for j, v in pivot.items():
                w = row.get(j, 0) - b * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            content = gcd(*row.values())
            if content > 1:
                row = {j: v // content for j, v in row.items()}
                den *= content
    if len(pivot_rows) < n:
        raise RankDeficientError([c for c in columns if c not in pivot_rows])
    # Pivot row i has its first entry in column i.  Substitute back with
    # x[j] = num[j] / den for every j already solved.
    num = [0] * n
    den = 1
    for i in reversed(columns):
        row = pivot_rows[i]
        lead = row[i]
        value = row.get(n, 0) * den - sum(v * num[j] for j, v in row.items() if i < j < n)
        if lead < 0:
            lead, value = -lead, -value
        g = gcd(value, lead)
        # x[i] = value / (lead * den); widen den so that it stays common.
        f = lead // g
        if f != 1:
            num[i + 1:] = [v * f for v in num[i + 1:]]
            den *= f
        num[i] = value // g
    return [Fraction(v, den) for v in num]
