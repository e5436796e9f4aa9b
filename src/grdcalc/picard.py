"""Rational divisor class groups of three moduli spaces, the universal
genus-2 curve, and the pull-backs between them.

Spaces
------
* ``mg1(g)``: stable 1-pointed genus-g curves, basis
  (lambda, psi, delta_0, ..., delta_{g-1});
* ``m21``: stable 1-pointed genus-2 curves, basis (lambda, psi, delta_0, delta_1);
* ``c21``: the universal curve over m21, basis (omega, sigma, delta) followed
  by the m21 basis read as pull-backs, where omega is the relative dualizing
  class, sigma the marked section and delta the divisor of two elliptic
  components with the marked points split;
* ``m0g(g)``: stable g-pointed rational curves, basis (epsilon_2, ..., epsilon_{g-2}),
  where epsilon_i is the boundary class whose first-marked-point component
  carries i marked points.

The three pull-back maps come from test families inside the space of pointed
genus-g curves: attaching g fixed elliptic tails to a pointed rational curve
(``pullback_i``), attaching a fixed genus-(g-2) curve to a varying pointed
genus-2 curve (``pullback_j``), and moving the marked point along one
component of a fixed two-component curve (``pullback_k``).

A divisor class keeps its signed coefficients as integer numerators over one
positive denominator, and the push-forward assembly solves for exactly those
coefficients, one unknown per basis symbol.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError
from .exact import format_rational
from .value import Value

LAMBDA = "lambda"
PSI = "psi"
_ZERO = Fraction(0)  # one immutable zero for every absent coefficient


def delta(i: int) -> str:
    return f"delta_{i}"


def epsilon(i: int) -> str:
    return f"epsilon_{i}"


class PicSpace(Value):
    """One of the four divisor class groups, identified by kind and genus."""

    __slots__ = ("kind", "g")

    def __init__(self, kind: str, g: int):
        self.kind, self.g = kind, g

    @classmethod
    def mg1(cls, g: int) -> "PicSpace":
        if g < 2:
            raise PreconditionError("mg1 needs g >= 2")
        return cls("mg1", g)

    @classmethod
    def m21(cls) -> "PicSpace":
        return cls("m21", 2)

    @classmethod
    def c21(cls) -> "PicSpace":
        return cls("c21", 2)

    @classmethod
    def m0g(cls, g: int) -> "PicSpace":
        if g < 4:
            raise PreconditionError("m0g needs g >= 4 for a non-empty basis")
        return cls("m0g", g)

    def basis(self) -> tuple[str, ...]:
        if self.kind in ("mg1", "m21"):
            return (LAMBDA, PSI) + tuple(delta(i) for i in range(self.g))
        if self.kind == "c21":
            return ("omega", "sigma", "delta") + PicSpace.m21().basis()
        return tuple(epsilon(i) for i in range(2, self.g - 1))

    def __contains__(self, sym) -> bool:
        """Whether sym is a basis symbol, read from its name without building the basis."""
        if self.kind == "c21" and sym in ("omega", "sigma", "delta"):
            return True
        if self.kind == "m0g":
            prefix, low, high = "epsilon_", 2, self.g - 2
        elif sym == LAMBDA or sym == PSI:
            return True
        else:
            prefix, low, high = "delta_", 0, self.g - 1
        index = sym[len(prefix):] if isinstance(sym, str) and sym.startswith(prefix) else ""
        # Digits as delta(i) or epsilon(i) print them: ASCII, no leading zero.
        return (index.isascii() and index.isdigit() and (index[0] != "0" or index == "0")
                and len(index) <= len(str(high)) and low <= int(index) <= high)

    def __str__(self) -> str:
        return self.kind if self.kind in ("m21", "c21") else f"{self.kind}({self.g})"


class DivisorClass(Value):
    """Sparse rational coefficient vector over the basis of one space.

    ``DivisorClass(space, coeffs, den)`` has coefficient coeffs[sym] / den on
    sym.  It is stored as ``nums``, an int numerator per symbol with a nonzero
    coefficient, over ``den``, a positive int coprime to them all, so each
    class has one stored form; ``coeffs``, ``get``, ``payload`` and ``repr``
    make ``Fraction``s only when read.  Treated as immutable: arithmetic
    returns new instances.  The constructor validates every symbol against
    the basis by its name (``sym in space``); ``unchecked`` builds the classes
    whose symbols are already known to be basis symbols.  Equal by space and
    coefficients, and unhashable.
    """

    __slots__ = ("space", "nums", "den")
    __hash__ = None

    def __init__(self, space: PicSpace, coeffs: Mapping[str, object] | None = None, den=1):
        for sym in coeffs or ():
            if sym not in space:
                raise PreconditionError(f"symbol {sym!r} is not in the basis of {space}")
        self._store(space, coeffs or {}, den)

    @classmethod
    def unchecked(cls, space: PicSpace, coeffs: Mapping[str, object], den=1) -> "DivisorClass":
        """``DivisorClass(space, coeffs, den)`` for symbols known to be in the basis
        (read from a class on space, or named as the basis names them), unchecked."""
        out = cls.__new__(cls)
        out._store(space, coeffs, den)
        return out

    def _store(self, space: PicSpace, coeffs: Mapping[str, object], den) -> None:
        ratios = {sym: (c, 1) if isinstance(c, int) else Fraction(c).as_integer_ratio()
                  for sym, c in coeffs.items()}
        common = lcm(*[q for _, q in ratios.values()])
        nums = {sym: p * (common // q) for sym, (p, q) in ratios.items() if p}
        common *= den
        g = gcd(common, *nums.values()) * (-1 if common < 0 else 1)
        self.space, self.den = space, common // g
        self.nums = nums if g == 1 else {sym: v // g for sym, v in nums.items()}

    @classmethod
    def zero(cls, space: PicSpace) -> "DivisorClass":
        return cls(space, {})

    coeffs = property(lambda self: {s: Fraction(v, self.den) for s, v in self.nums.items()},
                      doc="The nonzero coefficients as Fractions, keyed by symbol.")

    def get(self, sym: str) -> Fraction:
        v = self.nums.get(sym)
        return Fraction(v, self.den) if v else _ZERO

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.space != other.space:
            raise PreconditionError("cannot add classes on different spaces")
        den = lcm(self.den, other.den)
        out = {sym: v * (den // self.den) for sym, v in self.nums.items()}
        for sym, v in other.nums.items():
            out[sym] = out.get(sym, 0) + v * (den // other.den)
        return DivisorClass.unchecked(self.space, out, den)

    def scale(self, c) -> "DivisorClass":
        p, q = (c, 1) if isinstance(c, int) else Fraction(c).as_integer_ratio()
        return DivisorClass.unchecked(self.space, {s: p * v for s, v in self.nums.items()},
                                      q * self.den)

    def sorted_items(self) -> list[tuple[str, Fraction]]:
        order = {sym: i for i, sym in enumerate(self.space.basis())}
        return sorted(self.coeffs.items(), key=lambda kv: order[kv[0]])

    def payload(self) -> dict[str, str]:
        """The coefficients as a JSON-ready dict; rationals become ``p/q`` strings."""
        return {sym: format_rational(c) for sym, c in self.sorted_items()}

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*{s}" for s, c in self.sorted_items())
        return f"DivisorClass({self.space}, {body or '0'})"


def _require_space(D: DivisorClass, space: PicSpace, what: str) -> None:
    if D.space != space:
        raise PreconditionError(f"{what} expects a class on {space}, got {D.space}")


# Each test family's restriction is written once below, as sparse rows:
# target coordinate -> {source basis symbol of mg1(g): weight}.  The
# pull-backs evaluate these rows on a class; the push-forward assembly
# reads the same rows as the coefficients of its unknowns.  Every weight
# is an int, which the elimination reads as it is.
Row = dict[str, int | Fraction]


def evaluate(row: Row, D: DivisorClass) -> Fraction:
    """Value of one restriction row on a class: a sum over its numerators, divided once."""
    nums = D.nums
    return Fraction(sum(w * nums.get(sym, 0) for sym, w in row.items()), D.den)


def restrict(rows: Mapping[str, Row], D: DivisorClass) -> dict[str, Fraction]:
    """Evaluate restriction rows on a class: target coordinate -> value."""
    return {target: evaluate(row, D) for target, row in rows.items()}


def elliptic_tail_rows(g: int) -> dict[str, Row]:
    """Restriction of mg1(g) to the elliptic-tail family, for g >= 5, times (g-1)(g-2).

    epsilon_i, for 2 <= i <= g-2, reads delta_i minus the weights
    (g-i)(g-i-1)/((g-1)(g-2)) of delta_1 and (g-i)(i-1)/(g-2) of delta_{g-1};
    each row holds their integer numerators over the one denominator (g-1)(g-2).
    """
    den = (g - 1) * (g - 2)
    return {epsilon(i): {delta(i): den, delta(1): -(g - i) * (g - i - 1),
                         delta(g - 1): -(g - i) * (i - 1) * (g - 1)}
            for i in range(2, g - 1)}


def genus2_tail_rows(g: int) -> dict[str, Row]:
    """Restriction of mg1(g) to the genus-2-tail family, onto the m21 basis."""
    return {LAMBDA: {LAMBDA: 1}, delta(0): {delta(0): 1},
            PSI: {delta(g - 2): -1}, delta(1): {delta(g - 1): 1}}


def marked_point_row(g: int, h: int) -> Row:
    """Degree on the moving-marked-point family with a genus-h component.

    psi has degree 2h - 1, delta_h degree -1 and delta_{g-h} degree +1; for
    2h = g the two delta weights land on the same symbol and cancel.
    """
    if 2 * h == g:
        return {PSI: 2 * h - 1}
    return {PSI: 2 * h - 1, delta(h): -1, delta(g - h): 1}


def pullback_i(g: int, D: DivisorClass) -> DivisorClass:
    """Restrict a class on mg1(g) to the family of elliptic-tail curves.

    The family attaches g fixed elliptic tails to a varying stable g-pointed
    rational curve.  lambda, psi and delta_0 die; delta_i restricts to
    epsilon_i in the middle range, while delta_1 and delta_{g-1} restrict to
    explicit negative combinations of the epsilon_i (``elliptic_tail_rows``,
    whose numerators are divided here by (g-1)(g-2)).
    """
    if g < 5:
        raise PreconditionError("pullback_i needs g >= 5")
    _require_space(D, PicSpace.mg1(g), "pullback_i")
    return DivisorClass(PicSpace.m0g(g), restrict(elliptic_tail_rows(g), D), (g - 1) * (g - 2))


def pullback_j(g: int, D: DivisorClass) -> DivisorClass:
    """Restrict a class on mg1(g) to the genus-2-tail family.

    The family attaches a fixed 2-pointed genus-(g-2) curve to a varying
    pointed genus-2 curve: lambda and delta_0 survive, delta_{g-2} becomes
    -psi, delta_{g-1} becomes delta_1, everything else dies.
    """
    if g < 5:
        raise PreconditionError("pullback_j needs g >= 5")
    _require_space(D, PicSpace.mg1(g), "pullback_j")
    return DivisorClass(PicSpace.m21(), restrict(genus2_tail_rows(g), D))


def pullback_k(g: int, h: int, D: DivisorClass) -> Fraction:
    """Degree of a class on mg1(g) on the moving-marked-point family.

    The marked point moves along the genus-h component of a fixed
    two-component curve of total genus g (``marked_point_row``).
    """
    if not 1 <= h <= g - 1:
        raise PreconditionError(f"need 1 <= h <= g-1, got h={h}")
    _require_space(D, PicSpace.mg1(g), "pullback_k")
    return evaluate(marked_point_row(g, h), D)


def epsilon_intersection_matrix(g: int) -> list[list[Fraction]]:
    """Intersection numbers of the test curves against the epsilon basis.

    Square of size g - 3: rows are the curves B_1, ..., B_{g-3} (B_1 moves
    the first marked point along a fixed curve, B_j for j >= 2 moves one
    point on the (g-j)-marked component of a fixed curve in epsilon_j);
    columns are epsilon_2, ..., epsilon_{g-2}.  Row 1 is (g-1, 0, ..., 0);
    row j >= 2 carries -1 on epsilon_j, +1 on epsilon_{j+1} when that is not
    the last column, and g - j - 1 on epsilon_{g-2}.  The g = 5 and g = 6
    degenerations of this pattern are [[4,0],[-1,2]] and
    [[5,0,0],[-1,1,3],[0,-1,2]].
    """
    if g < 5:
        raise PreconditionError("epsilon_intersection_matrix needs g >= 5")
    n = g - 3
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][0] = Fraction(g - 1)
    for j in range(2, g - 2):
        rows[j - 1][j - 2] = Fraction(-1)
        if j + 1 <= g - 3:
            rows[j - 1][j - 1] = Fraction(1)
        rows[j - 1][n - 1] += Fraction(g - j - 1)
    return rows


# Rank-3 reduction on m21: the classical genus-2 relation among the generators,
# 10*lambda = delta_0 + 2*delta_1 (Mumford), solved below for delta_0.  Both
# ``reduce_m21`` and ``pushforward.family_equations`` (on the genus-2-tail rows)
# apply it; ``push_m21`` is built reduced.  The push-forward assembly cross-checks it.
GENUS2_RELATION: dict[str, int] = {LAMBDA: 10, delta(0): -1, delta(1): -2}

# Rows of the reduced basis (lambda, delta_1, psi) over the m21 basis: the
# weight of delta_0 on each symbol is read off the relation solved for delta_0,
# and left out where it is zero (psi).  The relation's delta_0 coefficient is
# -1, so every weight is an integer and is held as an int.
GENUS2_REDUCTION: dict[str, Row] = {
    sym: {sym: 1, delta(0): -GENUS2_RELATION[sym] // GENUS2_RELATION[delta(0)]}
    if sym in GENUS2_RELATION else {sym: 1}
    for sym in (LAMBDA, delta(1), PSI)
}


def compose(outer: Mapping[str, Row], inner: Mapping[str, Row]) -> dict[str, Row]:
    """Rows of restricting by ``inner`` and then by ``outer``; zero weights are dropped."""
    out: dict[str, Row] = {}
    for target, row in outer.items():
        acc: Row = {}
        for mid, w in row.items():
            for sym, v in inner[mid].items():
                acc[sym] = acc.get(sym, 0) + w * v
        out[target] = {sym: w for sym, w in acc.items() if w}
    return out


def reduce_m21(D: DivisorClass) -> DivisorClass:
    """Rewrite a class on m21 in the basis (lambda, delta_1, psi).

    Eliminates delta_0 through delta_0 = 10*lambda - 2*delta_1; idempotent,
    and constant on orbits of the relation.
    """
    _require_space(D, PicSpace.m21(), "reduce_m21")
    return DivisorClass(PicSpace.m21(), restrict(GENUS2_REDUCTION, D))


def _shown(term: str) -> str:
    """The term quoted for a message; a term past 40 characters is cut there."""
    return repr(term) if len(term) <= 40 else f"{term[:40]!r}... ({len(term)} characters)"


def _coefficient(term: str, text: str) -> Fraction:
    """The rational of one class term, refused if its numerator or denominator has
    more digits than Python prints.  A digit string longer than that is refused
    unread, and so is an exponent past twice the limit, since ``Fraction(text)``
    builds 10**exponent first: the mantissa has at most limit digits each side of
    the point, so any nonzero such value has too many."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    longest = max((len(run.replace("_", "")) for run in re.findall(r"[\d_]+", text)), default=0)
    exponent = re.search(r"e[-+]?([\d_]+)\s*$", text, re.IGNORECASE)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    try:
        huge = longest > limit or int(digits or 0) > 2 * limit
        c = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(
            f"bad coefficient in class term {_shown(term)}, expected a rational")
    if c is None or max(abs(c.numerator), c.denominator) >= 10 ** limit:
        raise PreconditionError(
            f"coefficient in class term {_shown(term)} has more than {limit} digits")
    return c


def parse_class(space: PicSpace, text: str) -> DivisorClass:
    """Parse ``symbol:coeff,symbol:coeff`` into a class on the given space."""
    items: dict[str, Fraction] = {}
    text = text.strip()
    if text:
        for chunk in text.split(","):
            if ":" not in chunk:
                raise PreconditionError(f"bad class term {_shown(chunk)}, expected symbol:coeff")
            sym, val = chunk.split(":", 1)
            sym = sym.strip()
            items[sym] = items.get(sym, _ZERO) + _coefficient(chunk, val.strip())
    return DivisorClass(space, items)
