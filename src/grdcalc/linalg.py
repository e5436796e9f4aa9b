"""Exact Gaussian elimination of integer systems with rational right-hand sides.

Solves possibly over-determined systems, demanding both full column rank and
consistency of every redundant equation; failure modes are reported as typed
exceptions carrying exact witnesses.  No pivot-magnitude heuristics are
needed because the arithmetic is exact.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
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


def _entry_fault(i: int, j, w, n: int) -> str:
    """What is wrong with the entry {j: w} of row i in a system of n columns."""
    if type(j) is not int:
        return f"row {i} has a {type(j).__name__} column {j!r}, expected an int"
    if not 0 <= j < n:
        return f"row {i} has column {j}, outside range({n})"
    if type(w) is not int:
        return f"row {i} has a {type(w).__name__} weight {w!r} in column {j}, expected an int"
    return f"row {i} has a zero weight in column {j}"


def solve_unique(rows: Sequence[Mapping[int, int]], rhs: Sequence, columns: int) -> list[Fraction]:
    """Solve A x = b in ``columns`` unknowns, requiring a unique solution
    satisfying every equation.

    Row i is sparse, ``{column: weight}``: an int column in range(columns)
    for each nonzero int weight.  A right-hand side entry is an int or a
    Fraction.  Raises ValueError for a column outside that range or not an
    int, a weight that is zero or not an int, or a right-hand side of any
    other type (a float, a str, None), checking every row before eliminating
    any; InconsistentSystemError if the (over-determined) system has no
    solution and RankDeficientError if it has more than one.

    The elimination builds a fraction-free row echelon form on sparse
    integer rows, one equation after the other.  Each row travels with its
    right-hand side as a separate int: with right-hand side p/q, the row's
    weights times q beside p, with q as its scale.  The caller's rows and
    right-hand sides are never written: a row is read from the caller's
    mapping until it first changes (scaled by q != 1, reduced, or divided
    by its content), and copied then, so a pivot row stored unchanged is
    the caller's mapping.  Equation i is reduced in its first column c by
    the pivot row of c: with pivot entry p and the row's entry t, the row
    becomes row * (p/g) - pivot * (t/g), where g is gcd(p, t) with the sign
    of p (for p = +-1, g is p and no gcd is taken); the update visits only
    the nonzero columns of the pivot row.  A row rescaled by p/g != 1 is
    divided by its content, right-hand side included, at once, any other
    row only when it is stored as a pivot row.  The reduction ends when no
    pivot row holds its first column (it becomes that column's pivot row),
    or when no column is left: it contradicts equations 0..i-1 if its
    right-hand side is nonzero, and is dropped otherwise.  The pivot
    columns, and so the free columns, do not depend on the order of the
    equations.

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
    n = columns
    for i, (row, bv) in enumerate(zip(rows, rhs)):
        for j, w in row.items():
            if not (type(j) is int is type(w) and w and 0 <= j < n):
                raise ValueError(_entry_fault(i, j, w, n))
        if not isinstance(bv, (int, Fraction)):
            raise ValueError(f"row {i} has a {type(bv).__name__} right-hand side {bv!r}, "
                             "expected an int or a Fraction")
    # pivots[c]: (row, rhs) of the pivot row whose first column is c.
    pivots: list[tuple[Mapping[int, int], int] | None] = [None] * n
    for i, (row, bv) in enumerate(zip(rows, rhs)):
        # The row with right-hand side b is num / den times equation i.
        b, num = bv.as_integer_ratio()
        den = 1
        # Until it is scaled or reduced, row is the caller's, and only read.
        own = num != 1
        if own:
            row = {j: w * num for j, w in row.items()}
        while row:
            col = min(row)
            pivot = pivots[col]
            if pivot is None:
                content = gcd(b, *row.values())
                if content > 1:
                    row = {j: v // content for j, v in row.items()}
                    b //= content
                pivots[col] = row, b
                break
            prow, pb = pivot
            lead = prow[col]
            t = row[col]
            if lead == 1 or lead == -1:
                a, f = 1, t * lead
            else:
                # With the sign of lead, a is positive and mostly 1: no rescale.
                g = gcd(lead, t) if lead > 0 else -gcd(lead, t)
                a, f = lead // g, t // g
            if a != 1:
                row = {j: v * a for j, v in row.items()}
                b *= a
                num *= a
                own = True
            elif not own:
                row = dict(row)
                own = True
            # Column col cancels: a * t == f * lead.
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            b -= f * pb
            if a != 1:
                content = gcd(b, *row.values())
                if content > 1:
                    row = {j: v // content for j, v in row.items()}
                    b //= content
                    den *= content
        else:
            if b:
                raise InconsistentSystemError(i, Fraction(b * den, num))
    if None in pivots:
        raise RankDeficientError([c for c, pivot in enumerate(pivots) if pivot is None])
    # Pivot row i has its first entry in column i.  Substitute back with
    # x[j] = num[j] / den for every j already solved; num[i] is still 0, so
    # the sum may run over the lead too.
    num = [0] * n
    den = 1
    for i in reversed(range(n)):
        row, b = pivots[i]
        lead = row[i]
        value = b * den
        for j, v in row.items():
            value -= v * num[j]
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
