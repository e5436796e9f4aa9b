"""Intersection numbers on the Grassmannian of projective r-planes in P^d.

Schubert indices follow the weakly increasing box convention
(b_0 <= b_1 <= ... <= b_r <= d - r); the codimension of the cycle sigma_b is
the sum of the entries, and the special cycle zeta of codimension r has index
(0, 1, 1, ..., 1).  Integrals of zeta^k against sigma_b are available through
two independent routes:

* a closed-form factorial evaluation (``special_power_integral``), and
* full expansion in the Chow ring by repeated products with zeta under
  the dual Pieri rule (``zeta_power_integral_pieri``): a ``SchubertCombo``
  holds the terms of the product as one dict from index to integer
  coefficient, and the integral is the coefficient of the point class
  (width, ..., width).

Agreement of the two routes over an exhaustive family of small shapes is part
of the package's verification suite.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from .errors import PreconditionError
from .value import Value

Index = tuple[int, ...]

# The most work one Pieri integral may do, counted at each product as the
# terms of the combination times the rows.  The largest integral of `verify`
# at g_max 60, at (g, r, d) = (60, 9, 63), counts 80 070; a refusal at
# the limit takes well under half a second on a 2-vCPU machine.
PIERI_WORK_LIMIT = 3 * 10 ** 5


class GrassShape(Value):
    """The Grassmannian of projective r-planes in projective d-space."""

    __slots__ = ("r", "d")

    def __init__(self, r: int, d: int):
        if not 0 <= r <= d:
            raise PreconditionError(f"need 0 <= r <= d, got r={r}, d={d}")
        self.r, self.d = r, d

    @property
    def rows(self) -> int:
        return self.r + 1

    @property
    def width(self) -> int:
        return self.d - self.r

    @property
    def dim(self) -> int:
        return self.rows * self.width


def check_partition(shape: GrassShape, b: Sequence[int]) -> Index:
    """Validate a Schubert index for the shape and return it as a tuple."""
    b = tuple(int(x) for x in b)
    if len(b) != shape.rows:
        raise PreconditionError(
            f"index needs {shape.rows} entries for {shape}, got {len(b)}")
    if any(x > y for x, y in zip(b, b[1:])):
        raise PreconditionError(f"index {b} is not weakly increasing")
    if b[0] < 0 or b[-1] > shape.width:
        raise PreconditionError(f"index {b} leaves the box of width {shape.width}")
    return b


class SchubertCombo:
    """A finite combination of Schubert cycles on one shape.

    ``terms`` maps weakly increasing box indices to their nonzero
    coefficients, which the Pieri rule keeps as plain integers; the
    constructor validates each index and drops zero coefficients.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape: GrassShape, terms: dict[Index, int] | None = None):
        self.shape = shape
        self.terms = ({check_partition(shape, b): c for b, c in terms.items() if c}
                      if terms else {})

    def __len__(self) -> int:
        return len(self.terms)


def special_power_integral(shape: GrassShape, k: int, b: Sequence[int]) -> Fraction:
    """Integral of zeta^k . sigma_b by the closed factorial formula.

    With a_i = b_i + i, the value is
    k! / prod_i (k - d + r + a_i)! * prod_{i<j} (a_j - a_i)
    whenever r*k + sum(b) equals the dimension of the shape; a negative
    factorial argument means the cycle is forced outside the box and the
    whole product vanishes.  A failed dimension count also gives zero.
    """
    b = check_partition(shape, b)
    if k < 0:
        raise PreconditionError("power must be non-negative")
    if shape.r == 0:
        k = 0  # zeta is the unit class: the value does not depend on k
    if shape.r * k + sum(b) != shape.dim:
        return Fraction(0)
    a = [bi + i for i, bi in enumerate(b)]
    shifts = [k - shape.d + shape.r + ai for ai in a]
    if any(s < 0 for s in shifts):
        return Fraction(0)
    num = factorial(k)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            num *= a[j] - a[i]
    den = 1
    for s in shifts:
        den *= factorial(s)
    return Fraction(num, den)


def pieri_multiply(combo: SchubertCombo, floor: int = 0) -> SchubertCombo:
    """Multiply a combination by zeta = sigma_{1^r}, keeping the results
    whose first entry is at least ``floor``.

    Dual Pieri rule: each term b gains one box in every row but one.  The
    result is an index exactly when the staying row i is the first of its
    run of equal entries, and when b[-1] == width it must be the last row,
    so each result is b + 1 with entry i left at b[i].  Its first entry is
    b[0] if row 0 stays and b[0] + 1 otherwise, so a term with
    b[0] + 1 < floor is skipped and, when b[0] + 1 == floor, row 0 does not
    stay: no result below the floor is built.  With floor 0 every result
    is kept.  Coefficients that cancel are dropped.  For r = 0 the product
    is the identity.
    """
    shape = combo.shape
    out = SchubertCombo(shape)
    terms = out.terms
    width = shape.width
    last = shape.rows - 1
    for b, c in combo.terms.items():
        first = b[0] + 1
        if first < floor:
            continue
        grown = tuple([x + 1 for x in b])
        full = b[-1] == width
        # A run taken to start at b[0] keeps row 0 from staying.
        prev = -1 if first > floor else b[0]
        for i, x in enumerate(b):
            if x != prev and (not full or i == last):
                key = grown[:i] + (x,) + grown[i + 1:]
                v = terms.get(key, 0) + c
                if v:
                    terms[key] = v
                else:
                    del terms[key]
            prev = x
    return out


def zeta_power_integral_pieri(shape: GrassShape, k: int, b: Sequence[int]) -> Fraction:
    """Integral of zeta^k . sigma_b by iterated Pieri multiplications.

    Fully independent of the closed form: expands the product in the Chow
    ring and reads off the point-class coefficient.  For r = 0 zeta is the
    unit class and no product is taken.  Otherwise a product adds at most
    one box per row, so a term whose first row is more boxes short of the
    width than there are products left cannot reach the point class: each
    product is asked for the results with first entry at least
    width - (products left), and builds no other.  The rule reads only the
    box, and no dict is rebuilt between products.  Each product
    adds r boxes, so the loop stops once the combination is empty, after at
    most (dim - |b|) // r + 1 products.  Past ``PIERI_WORK_LIMIT`` it refuses.
    """
    b = check_partition(shape, b)
    if k < 0:
        raise PreconditionError("power must be non-negative")
    combo = SchubertCombo(shape, {b: 1})
    width = shape.width
    work = 0
    for left in reversed(range(k if shape.r else 0)):
        if not combo:
            break
        work += len(combo) * shape.rows
        if work > PIERI_WORK_LIMIT:
            raise PreconditionError(
                f"Pieri expansion needs more than {PIERI_WORK_LIMIT} term-rows of work; "
                "use the closed form (--method closed)")
        combo = pieri_multiply(combo, width - left)
    return Fraction(combo.terms.get((width,) * shape.rows, 0))


def iter_box_indices(shape: GrassShape, max_weight: int | None = None) -> Iterator[Index]:
    """All weakly increasing indices in the box, in lexicographic order,
    optionally capped in weight."""
    indices = combinations_with_replacement(range(shape.width + 1), shape.rows)
    if max_weight is None:
        return indices
    return (b for b in indices if sum(b) <= max_weight)
