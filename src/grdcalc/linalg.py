"""Exact Gaussian elimination over the rationals.

Solves possibly over-determined systems, demanding both full column rank and
consistency of every redundant equation; failure modes are reported as typed
exceptions carrying exact witnesses.  No pivot-magnitude heuristics are
needed because the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

    Entries are ints or Fractions.  Raises InconsistentSystemError if the
    (over-determined) system has no solution and RankDeficientError if it
    has more than one.

    The elimination is sparse and runs on integer rows.  Each augmented row
    is cleared of denominators once and kept as a dict of its nonzero
    entries, divided by their content.  A pivot p clears its column from a
    row below it whose entry there is t by replacing that row with
    row * (p/g) - pivot * (t/g), where g is gcd(p, t) with the sign of p,
    and dividing the result by its content; the update visits only the
    nonzero columns of the pivot row.  Every integer row is a nonzero multiple of the row that rational
    elimination would hold at the same step, and the row keeps that
    multiple as its scale, so a contradiction reports the real value
    (integer residue over scale) that the equation reduces to.  Back
    substitution runs over one common integer denominator, and each
    solution entry becomes a Fraction once.

    Column by column, the pivot is the first row at or below the current
    one with a nonzero entry there, so the row swaps, the witness equation
    of a contradiction (with the value it reduces to) and the free columns
    are those of dense Gauss-Jordan elimination.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    m: List[Dict[int, int]] = []
    # Row i of m is scale_num[i] / scale_den[i] times its rational row.
    scale_num: List[int] = []
    scale_den: List[int] = []
    for row, bv in zip(rows, rhs):
        entries = {j: x.as_integer_ratio() for j, x in enumerate(row) if x}
        if bv:
            entries[n] = bv.as_integer_ratio()
        den = lcm(*[q for _, q in entries.values()])
        ints = {j: p * (den // q) for j, (p, q) in entries.items()}
        content = gcd(*ints.values())
        if content > 1:
            ints = {j: v // content for j, v in ints.items()}
        m.append(ints)
        scale_num.append(den)
        scale_den.append(max(content, 1))
    origin = list(range(len(m)))
    pivots: List[int] = []
    r = 0
    for col in range(n + 1):
        pivot = next((i for i in range(r, len(m)) if col in m[i]), None)
        if pivot is None:
            continue
        for seq in (m, origin, scale_num, scale_den):
            seq[r], seq[pivot] = seq[pivot], seq[r]
        lead = m[r][col]
        # A pivot in the rhs column is an equation reduced to 0 = lead.
        if col == n:
            raise InconsistentSystemError(
                origin[r], Fraction(lead * scale_den[r], scale_num[r]))
        prow = m[r].items()
        for i in range(r + 1, len(m)):
            target = m[i]
            t = target.get(col)
            if t is None:
                continue
            # With the sign of lead, a is positive and mostly 1: no rescale.
            g = gcd(lead, t) if lead > 0 else -gcd(lead, t)
            a, b = lead // g, t // g
            if a != 1:
                target = {j: v * a for j, v in target.items()}
            for j, v in prow:
                w = target.get(j, 0) - b * v
                if w:
                    target[j] = w
                else:
                    del target[j]
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
    # Every column has a pivot, so row i has its pivot in column i and
    # nothing to the left of it.  Substitute back with x[j] = num[j] / den
    # for every j already solved.
    num = [0] * n
    den = 1
    for i in reversed(range(n)):
        row = m[i]
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
