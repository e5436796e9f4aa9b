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
hashes an int, not a tuple, and reads a term's entries back with one
precompiled ``struct`` unpack; ``SchubertCombo.by_index`` gives the terms
keyed by index tuples.

Agreement of the two routes over an exhaustive family of small shapes is part
of the package's verification suite.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from operator import gt, index
from struct import Struct, calcsize

from .errors import PreconditionError
from .value import Value

Index = tuple[int, ...]

# Unsigned entry formats of a packed index, narrowest first: (bytes, format),
# sized in the standard mode that ``IndexCode.codec`` reads them in.
_ENTRY_FORMATS = [(calcsize("<" + fmt), fmt) for fmt in "BHIQ"]

# The most work one Pieri integral may do, counted at each product as the
# terms of the combination times the rows.  The largest integral of
# `verify` at g_max 60, at (g, r, d) = (60, 9, 63), counts 38 350.  The
# slowest refusals at the limit found with d <= 300 (r = 4, d = 226 to 298,
# b = 0 or b[r] = 1, a power past the dimension) take 0.08-0.11 s
# in-process, 0.09-0.12 s with the former ``memoryview`` decode, best of 5
# run alternately (Python 3.11, 2 vCPUs).
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

    Entry i of an index is field i of ``codec``, a precompiled
    ``struct.Struct`` of unsigned fields in the byte order ``order``
    (``sys.byteorder``) that the int is written in, so one ``int.to_bytes``
    and one ``codec.unpack`` read every entry back, and ``codec.pack`` packs
    them, on either byte order.  Each field is the narrowest of 1, 2, 4 or 8
    bytes that holds ``width``; a box too wide for 8 is refused.  Field i
    sits at bit ``shifts[i]`` of the int, so an index packs to the sum of
    ``b[i] << shifts[i]``, ``ones`` is the packed (1, ..., 1) and ``point``
    the packed point class (width, ..., width).
    """

    __slots__ = ("width", "order", "codec", "nbytes", "shifts", "ones", "point")

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
        self.width, self.order = width, sys.byteorder
        self.codec = Struct(("<" if self.order == "little" else ">") + fmt * rows)
        self.nbytes = size * rows
        self.shifts = list(range(0, bits * rows, bits))
        if self.order == "big":
            self.shifts.reverse()
        self.ones = ((1 << bits * rows) - 1) // ((1 << bits) - 1)
        self.point = width * self.ones

    def pack(self, b: Sequence[int]) -> int:
        """The int of an index, each entry in its own field."""
        return int.from_bytes(self.codec.pack(*b), self.order)

    def entries(self, key: int) -> tuple[int, ...]:
        """The entries of a packed index, in row order."""
        return self.codec.unpack(key.to_bytes(self.nbytes, self.order))

    def dual(self, key: int) -> int:
        """The packed Schubert dual of a packed index b: entry i is
        width - b[r - i], the index whose class meets sigma_b in the point.

        The entries are reversed and packed again, and taken from
        ``point``, which no entry exceeds.  The map is an involution.
        """
        return self.point - self.pack(self.entries(key)[::-1])


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
        return {self.code.entries(key): c for key, c in self.terms.items()}

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
    whole product vanishes; a_i increases, so only the first argument is
    tested.  A failed dimension count also gives zero.
    """
    b = check_partition(shape, b)
    if k < 0:
        raise PreconditionError("power must be non-negative")
    if shape.r == 0:
        k = 0  # zeta is the unit class: the value does not depend on k
    if shape.r * k + sum(b) != shape.dim:
        return Fraction(0)
    a = [bi + i for i, bi in enumerate(b)]
    low = k - shape.d + shape.r  # the factorial argument of a_i is low + a_i
    if low + a[0] < 0:
        return Fraction(0)
    num = factorial(k) * prod([aj - ai for i, ai in enumerate(a) for aj in a[i + 1:]])
    return Fraction(num, prod([factorial(low + ai) for ai in a]))


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
    entry, are read back once per term, by one ``codec.unpack``.  A
    result's first entry is b[0] if row 0 stays and b[0] + 1 otherwise,
    so a term with b[0] + 1 < floor is skipped and, when
    b[0] + 1 == floor, row 0 does not stay: no result below the floor is
    built.  A term with b[-1] == width is decided before the row loop:
    only its last row may stay, and only where that row starts its run
    (for r = 0, where the floor lets row 0 stay).  With floor 0 every
    result is kept.  Coefficients that cancel are dropped.  For r = 0 the
    product is the identity.  The result shares the combination's
    ``IndexCode``.
    """
    code = combo.code
    unpack, nbytes, order = code.codec.unpack, code.nbytes, code.order
    shifts, ones, width = code.shifts, code.ones, code.width
    tall, last_row = len(shifts) > 1, ((shifts[-1], width),)
    terms: dict[int, int] = {}
    for key, c in combo.terms.items():
        b = unpack(key.to_bytes(nbytes, order))  # code.entries(key), inlined
        first = b[0] + 1
        if first < floor:
            continue
        if b[-1] != width:
            rows = zip(shifts, b)
        elif not tall or b[-2] < width:
            rows = last_row  # only the last row may stay, and it starts its run
        else:
            continue
        grown = key + ones
        # A run taken to start at b[0] keeps row 0 from staying.
        prev = -1 if first > floor else b[0]
        for s, x in rows:
            if x != prev:
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
