"""Intersection numbers on the Grassmannian of projective r-planes in P^d.

Schubert indices follow the weakly increasing box convention
(b_0 <= b_1 <= ... <= b_r <= d - r); the codimension of the cycle sigma_b is
the sum of the entries, and the special cycle zeta of codimension r has index
(0, 1, 1, ..., 1).  Integrals of zeta^k against sigma_b are available through
two independent routes:

* a closed-form factorial evaluation (``special_power_integral``), and
* full expansion in the Chow ring by repeated products with zeta under
  the dual Pieri rule (``zeta_power_integral_pieri``): a ``SchubertCombo``
  holds the terms of a product as one dict from packed index to integer
  coefficient.  For b = 0 the route expands zeta^floor(k/2) and, on
  from it, zeta^ceil(k/2), and the integral is the sum of the
  coefficients of the one at c times those of the other at the Schubert
  dual of c; otherwise it is the coefficient of the point class in
  sigma_b . zeta^k.

A packed index is one int with each entry in its own fixed-width field
(``IndexCode``), so a product builds each result with one subtraction and
hashes an int, not a tuple; ``SchubertCombo.by_index`` gives the terms
keyed by index tuples.

Agreement of the two routes over an exhaustive family of small shapes is part
of the package's verification suite.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from operator import gt, index
from struct import calcsize

from .errors import PreconditionError
from .value import Value

Index = tuple[int, ...]

# Native entry formats of a packed index, narrowest first: (bytes, format).
_ENTRY_FORMATS = [(calcsize(fmt), fmt) for fmt in "BHIQ"]

# The most work one Pieri integral may do, counted at each product as the
# terms of the combination times the rows.  The largest integral of
# `verify` at g_max 60, at (g, r, d) = (60, 9, 63), counts 38 350.  The
# slowest refusal at the limit found with d <= 300 (r = 2 to 4, b = 0 or
# b[r] = 1, a power past the dimension) takes 0.13-0.19 s in-process, as
# the one-way route did in the same runs (Python 3.11, 2 vCPUs).
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
    """Validate a Schubert index for the shape and return it as a tuple of ints.

    An entry is read with ``operator.index``: 1.9 is refused, not read as 1.
    """
    try:
        b = tuple(map(index, b))
    except TypeError:
        bad = next(v for v in b if not hasattr(v, "__index__"))
        raise PreconditionError(f"index entry {bad!r} is not an integer") from None
    if len(b) != shape.rows:
        raise PreconditionError(
            f"index needs {shape.rows} entries for {shape}, got {len(b)}")
    if any(map(gt, b, b[1:])):
        raise PreconditionError(f"index {b} is not weakly increasing")
    if b[0] < 0 or b[-1] > shape.width:
        raise PreconditionError(f"index {b} leaves the box of width {shape.width}")
    return b


class IndexCode:
    """How the indices of one shape are packed into ints.

    Entry i of an index is the i-th native item of format ``format`` in the
    bytes of its int written in host byte order (``sys.byteorder``), so one
    ``int.to_bytes`` and one ``memoryview.cast`` read every entry back, and
    ``array`` packs them, on either byte order.  ``format`` is the narrowest
    native unsigned format that holds ``width``, and a valid index has no
    wider entry; a box too wide for every format is refused.  Field i sits
    at bit ``shifts[i]`` of the int, so an index packs to the sum of
    ``b[i] << shifts[i]``, ``ones`` is the packed (1, ..., 1) and ``point``
    the packed point class (width, ..., width).
    """

    __slots__ = ("width", "format", "order", "nbytes", "shifts", "ones", "point")

    def __init__(self, shape: GrassShape):
        width, rows = shape.width, shape.rows
        for size, fmt in _ENTRY_FORMATS:
            if width >> 8 * size == 0:
                break
        else:
            raise PreconditionError(
                f"the Pieri route packs an index entry in at most {size} bytes, "
                f"too few for width {width}; use the closed form (--method closed)")
        bits = 8 * size
        self.width, self.format, self.order = width, fmt, sys.byteorder
        self.nbytes = size * rows
        self.shifts = list(range(0, bits * rows, bits))
        if self.order == "big":
            self.shifts.reverse()
        self.ones = ((1 << bits * rows) - 1) // ((1 << bits) - 1)
        self.point = width * self.ones

    def pack(self, b: Sequence[int]) -> int:
        """The int of an index, each entry in its own field."""
        return int.from_bytes(array(self.format, b), self.order)

    def entries(self, key: int) -> memoryview:
        """The entries of a packed index, as ints, in row order."""
        return memoryview(key.to_bytes(self.nbytes, self.order)).cast(self.format)

    def dual(self, key: int) -> int:
        """The packed Schubert dual of a packed index b: entry i is
        width - b[r - i], the index whose class meets sigma_b in the point.

        The entries are reversed as native items, so the field size and the
        byte order do not matter, and taken from ``point``, which no entry
        exceeds.  The map is an involution.
        """
        return self.point - int.from_bytes(self.entries(key)[::-1].tobytes(), self.order)


class SchubertCombo:
    """A finite combination of Schubert cycles on one shape.

    ``terms`` maps packed weakly increasing box indices (``code.pack``) to
    their nonzero coefficients, which the Pieri rule keeps as plain
    integers; the constructor validates and packs each index and drops
    zero coefficients.  ``by_index`` gives the terms keyed by index tuples.
    """

    __slots__ = ("shape", "code", "terms")

    def __init__(self, shape: GrassShape, terms: dict[Index, int] | None = None):
        self.shape = shape
        self.code = IndexCode(shape)
        self.terms = ({self.code.pack(check_partition(shape, b)): c
                       for b, c in terms.items() if c} if terms else {})

    def by_index(self) -> dict[Index, int]:
        """The terms keyed by index tuples."""
        return {tuple(self.code.entries(key)): c for key, c in self.terms.items()}

    def _with_terms(self, terms: dict[int, int]) -> SchubertCombo:
        """A combination on the same shape and code, holding packed terms as given."""
        out = object.__new__(SchubertCombo)
        out.shape, out.code, out.terms = self.shape, self.code, terms
        return out


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
    so each result is b + 1 with entry i left at b[i].  On the packed key
    that is ``grown - (1 << shifts[i])`` with ``grown = key + ones``: one
    subtraction, and the result is hashed as an int.  An entry of
    ``grown`` may pass the width and leave its field, but no result keeps
    it.  The entries of b, which give the staying rows and the first
    entry, are read back once per term.  A result's first entry is b[0]
    if row 0 stays and b[0] + 1 otherwise, so a term with
    b[0] + 1 < floor is skipped and, when b[0] + 1 == floor, row 0 does
    not stay: no result below the floor is built.  With floor 0 every
    result is kept.  Coefficients that cancel are dropped.  For r = 0 the
    product is the identity.  The result shares the combination's
    ``IndexCode``.
    """
    code = combo.code
    nbytes, order, fmt = code.nbytes, code.order, code.format
    shifts, ones, width = code.shifts, code.ones, code.width
    last = shifts[-1]
    terms: dict[int, int] = {}
    for key, c in combo.terms.items():
        b = memoryview(key.to_bytes(nbytes, order)).cast(fmt)  # code.entries(key), inlined
        first = b[0] + 1
        if first < floor:
            continue
        grown = key + ones
        full = b[-1] == width
        # A run taken to start at b[0] keeps row 0 from staying.
        prev = -1 if first > floor else b[0]
        for s, x in zip(shifts, b):
            if x != prev and (not full or s == last):
                out = grown - (1 << s)
                v = terms.get(out, 0) + c
                if v:
                    terms[out] = v
                else:
                    del terms[out]
            prev = x
    return combo._with_terms(terms)


def _zeta_products(combo: SchubertCombo, steps: range, k: int,
                   work: int) -> tuple[SchubertCombo, int]:
    """Take the products numbered ``steps`` of the k products by zeta in an
    integral, product n keeping the results whose first entry is at least
    width - (k - n - 1); stop once the combination is empty.  ``work``
    is the work done before, returned with the work of these products
    added; past ``PIERI_WORK_LIMIT`` it refuses.
    """
    rows, width = combo.shape.rows, combo.shape.width
    for n in steps:
        if not combo.terms:
            break
        work += len(combo.terms) * rows
        if work > PIERI_WORK_LIMIT:
            raise PreconditionError(
                f"Pieri expansion needs more than {PIERI_WORK_LIMIT} term-rows of work; "
                "use the closed form (--method closed)")
        combo = pieri_multiply(combo, width - (k - n - 1))
    return combo, work


def zeta_power_integral_pieri(shape: GrassShape, k: int, b: Sequence[int]) -> Fraction:
    """Integral of zeta^k . sigma_b by iterated Pieri multiplications.

    Fully independent of the closed form: expands products in the Chow
    ring.  For b = 0 the route pairs two halves by Schubert duality: the
    first far = floor(k/2) products give B = zeta^far, the next
    near - far products (near = ceil(k/2)) go on from B to
    A = zeta^near, and the result is the sum over c of A[c] . B[dual of c]
    (``IndexCode.dual``), looping over the smaller of the two dicts: the
    integral of sigma_c . sigma_e is 1 if e is the dual of c and 0
    otherwise, so the sum is the integral of A . B.  For b != 0 all k
    products are taken on sigma_b and the integral is the coefficient of
    the point class (width, ..., width).  For r = 0 zeta is the unit class
    and no product is taken.

    Each product adds at most one box per row, so a term whose first row
    is more boxes short of the width than there are products left, those
    of the other half counted, cannot reach the point class: each product
    is asked for the results with first entry at least
    width - (products left), and builds no other (``pieri_multiply``'s
    floor).  For b = 0 the schedules of A and B agree, which is why B is
    on the way to A.  The rule reads only the box, and the ``IndexCode``
    is built once per integral.  Each product adds r boxes, so the
    expansion stops once its combination is empty, after at most
    (dim - |b|) // r + 1 products; off the dimension no key of the one
    half has its dual in the other.  The work of every product counts
    against ``PIERI_WORK_LIMIT``.
    """
    b = check_partition(shape, b)
    if k < 0:
        raise PreconditionError("power must be non-negative")
    if not shape.r:
        k = 0  # zeta is the unit class
    start = SchubertCombo(shape)
    code = start.code
    start.terms[code.pack(b)] = 1
    if any(b):
        combo, _ = _zeta_products(start, range(k), k, 0)
        return Fraction(combo.terms.get(code.point, 0))
    near, far = k - k // 2, k // 2
    low, work = _zeta_products(start, range(far), k, 0)
    high, _ = _zeta_products(low, range(far, near), k, work)
    small, large = high.terms, low.terms
    if len(small) > len(large):
        small, large = large, small
    dual, total = code.dual, 0
    for key, c in small.items():
        total += c * large.get(dual(key), 0)
    return Fraction(total)


def iter_box_indices(shape: GrassShape, max_weight: int | None = None) -> Iterator[Index]:
    """All weakly increasing indices in the box, in lexicographic order,
    optionally capped in weight."""
    indices = combinations_with_replacement(range(shape.width + 1), shape.rows)
    if max_weight is None:
        return indices
    return (b for b in indices if sum(b) <= max_weight)
