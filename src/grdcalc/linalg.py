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

Row = list[Fraction]


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

    Every row has len(rows[0]) entries, and the coefficients are ints; a
    right-hand side entry is an int or a Fraction.  Raises ValueError for a
    row of another length, a right-hand side of any other type (a float, a
    str, None) or a coefficient that is not an int, InconsistentSystemError
    if the (over-determined) system has no solution and RankDeficientError
    if it has more than one.

    The elimination is sparse and runs on integer rows.  Each augmented row
    is read once: with its right-hand side p/q, ``compress(range(n), row)``
    yields its nonzero columns, whose coefficients are multiplied by q, p
    joins them in the rhs column, and the row is kept as a dict of its
    nonzero entries, divided by their content, with q as its scale.  A pivot p
    clears its column from a row below it whose entry there is t by
    replacing that row with row * (p/g) - pivot * (t/g), where g is
    gcd(p, t) with the sign of p, and dividing the result by its content;
    the update visits only the nonzero columns of the pivot row.  Every
    integer row is a nonzero multiple of the row that rational elimination
    would hold at the same step, and the row keeps that multiple as its
    scale, so a contradiction reports the real value (integer residue over
    scale) that the equation reduces to.  Back substitution runs over one
    common integer denominator, and each solution entry becomes a Fraction
    once.

    Rows stay where they are: row i is equation i for the whole
    elimination, and two lists keep the place order of dense Gauss-Jordan
    elimination (``at[k]`` is the row at place k, ``place[i]`` the place of
    row i), so a row swap only exchanges two places.  A column index keeps,
    for each column, the set of rows not yet pivoted that hold an entry
    there; a fill-in and a cancellation update it.  Column by column, the
    pivot is the row of that set with the smallest place, i.e. the first
    row at or below the current place with a nonzero entry there, and the
    rest of the set are the rows it clears; no row without an entry in the
    column is visited.  So the pivots, the witness equation of a
    contradiction (with the value it reduces to) and the free columns are
    those of dense Gauss-Jordan elimination.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    columns = range(n)
    m: list[dict[int, int]] = []
    # Row i of m is scale_num[i] / scale_den[i] times its rational row.
    scale_num: list[int] = []
    scale_den: list[int] = []
    # holders[j]: the rows not yet pivoted with an entry in column j; j = n
    # is the rhs column.
    holders: list[set[int]] = [set() for _ in range(n + 1)]
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
        for j in ints:
            holders[j].add(i)
        m.append(ints)
        scale_num.append(q)
        scale_den.append(max(content, 1))
    at = list(range(len(m)))
    place = list(range(len(m)))
    pivots: list[int] = []
    r = 0
    for col in range(n + 1):
        if not holders[col]:
            continue
        pivot = min(holders[col], key=place.__getitem__)
        # The pivot row and the row at place r trade places.
        other, k = at[r], place[pivot]
        at[r], at[k] = pivot, other
        place[pivot], place[other] = r, k
        lead = m[pivot][col]
        # A pivot in the rhs column is an equation reduced to 0 = lead.
        if col == n:
            raise InconsistentSystemError(
                pivot, Fraction(lead * scale_den[pivot], scale_num[pivot]))
        for j in m[pivot]:
            holders[j].remove(pivot)
        targets, holders[col] = holders[col], set()
        prow = [(j, v) for j, v in m[pivot].items() if j != col]
        for i in targets:
            target = m[i]
            t = target.pop(col)
            # With the sign of lead, a is positive and mostly 1: no rescale.
            g = gcd(lead, t) if lead > 0 else -gcd(lead, t)
            a, b = lead // g, t // g
            if a != 1:
                target = {j: v * a for j, v in target.items()}
            for j, v in prow:
                w = target.get(j, 0) - b * v
                if w:
                    target[j] = w
                    holders[j].add(i)
                else:
                    del target[j]
                    holders[j].remove(i)
            content = gcd(*target.values())
            if content > 1:
                target = {j: v // content for j, v in target.items()}
                scale_den[i] *= content
            m[i] = target
            scale_num[i] *= a
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    if len(pivots) < n:
        raise RankDeficientError([c for c in range(n) if c not in pivots])
    # Every column has a pivot, so the row at place i has its pivot in
    # column i and nothing to the left of it.  Substitute back with
    # x[j] = num[j] / den for every j already solved.
    num = [0] * n
    den = 1
    for i in reversed(range(n)):
        row = m[at[i]]
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

