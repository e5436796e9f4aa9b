"""Closed-form push-forwards of alpha, beta, gamma and their re-derivation.

For rho = 0 the series space covers the moduli space of pointed genus-g
curves with degree N, and the push-forward of each tautological class is an
explicit combination of lambda, psi and the boundary classes delta_i.  The
closed forms are stated here directly; ``solve_from_families`` re-derives
them by assembling the special-family data into an over-determined exact
linear system, which must be consistent with a unique solution.  The two
routes agreeing coefficient-for-coefficient is the package's central check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple

from . import linalg
from .errors import ConsistencyError, PreconditionError
from .exact import as_field
from .families import ClassLabel, marked_per_n, push_m21, push_marked
from .invariants import (ALPHA_GAMMA_PUSH, BETA_PUSH, COVER_DEGREE, TEST_FAMILIES,
                         castelnuovo_count, xi)
from .picard import (GENUS2_REDUCTION, LAMBDA, PSI, DivisorClass, PicSpace, compose, delta,
                     elliptic_tail_rows, genus2_tail_rows, make_class, marked_point_row,
                     pullback_i, pullback_j, pullback_k, reduce_m21)


@dataclass(frozen=True)
class PushforwardSolution:
    """Solution of the push-forward problem in the a*lambda - sum b_i delta_i + c*psi convention."""

    a: Fraction
    b: Tuple[Fraction, ...]
    c: Fraction

    def as_divisor_class(self, g: int) -> DivisorClass:
        if len(self.b) != g:
            raise PreconditionError(f"need {g} boundary coefficients, got {len(self.b)}")
        items: Dict[str, Fraction] = {LAMBDA: self.a, PSI: self.c}
        for i, bi in enumerate(self.b):
            items[delta(i)] = -bi
        return make_class(PicSpace.mg1(g), items)



@dataclass(frozen=True)
class PerCoverDegree:
    """Coefficients of a push-forward divided by the cover degree N.

    The entries lie in whatever field (g, r, d) lie in: Fractions for
    integer inputs, rational functions for symbolic ones.  ``delta_i(i)``
    gives the coefficient of delta_i for 1 <= i < g.
    """

    lam: object
    delta0: object
    psi: object
    delta_i: Callable[[int], object]


def alpha_per_n(g, r, d) -> PerCoverDegree:
    """Push-forward of the squared line-bundle class, per cover degree.

    d/(6(g-1)(g-2)) times
    [ 6(gd - 2g^2 + 8d - 8g + 4) lambda + (2g^2 - gd + 3g - 4d - 2) delta_0
      + 6 sum_i (g-i)(gd + 2ig - 2id - 2d) delta_i - 6d(g-2) psi ].
    """
    pref = as_field(d) / (6 * (g - 1) * (g - 2))
    return PerCoverDegree(
        lam=pref * 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4),
        delta0=pref * (2 * g * g - g * d + 3 * g - 4 * d - 2),
        psi=pref * (-6 * d * (g - 2)),
        delta_i=lambda i: pref * 6 * (g - i) * (g * d + 2 * i * g - 2 * i * d - 2 * d))


def beta_per_n(g, r, d) -> PerCoverDegree:
    """Push-forward of (line bundle class).(dualizing class), per cover degree.

    d/(2(g-1)) times
    [ 12 lambda - delta_0 + 4 sum_i (g-i)(g-i-1) delta_i - 2(g-1) psi ].
    """
    pref = as_field(d) / (2 * (g - 1))
    return PerCoverDegree(
        lam=pref * 12,
        delta0=-pref,
        psi=pref * (-2 * (g - 1)),
        delta_i=lambda i: pref * 4 * (g - i) * (g - i - 1))


def gamma_per_n(g, r, d) -> PerCoverDegree:
    """Push-forward of the section-bundle class, per cover degree.

    1/(2(g-1)(g-2)) times
    [ (-(g+3) xi + 5r(r+2)) lambda - d(r+1)(g-2) psi
      + (1/6)((g+1) xi - 3r(r+2)) delta_0
      + sum_i (g-i)(i xi + (g-i-2) r(r+2)) delta_i ].
    """
    x = xi(g, r, d)
    pref = 1 / as_field(2 * (g - 1) * (g - 2))
    rr = r * (r + 2)
    return PerCoverDegree(
        lam=pref * (-(g + 3) * x + 5 * rr),
        delta0=pref * Fraction(1, 6) * ((g + 1) * x - 3 * rr),
        psi=pref * (-d * (r + 1) * (g - 2)),
        delta_i=lambda i: pref * (g - i) * (i * x + (g - i - 2) * rr))


def _times_cover_degree(g: int, r: int, d: int, per_n: PerCoverDegree) -> DivisorClass:
    """The class on mg1(g) whose coefficients are N times those of per_n."""
    n = castelnuovo_count(g, r, d)
    items: Dict[str, Fraction] = {LAMBDA: per_n.lam * n, delta(0): per_n.delta0 * n,
                                  PSI: per_n.psi * n}
    for i in range(1, g):
        items[delta(i)] = per_n.delta_i(i) * n
    return make_class(PicSpace.mg1(g), items)


def alpha(g: int, r: int, d: int) -> DivisorClass:
    """Push-forward of the squared line-bundle class on mg1(g): N times ``alpha_per_n``."""
    ALPHA_GAMMA_PUSH.check(g, r, d)
    return _times_cover_degree(g, r, d, alpha_per_n(g, r, d))


def beta(g: int, r: int, d: int) -> DivisorClass:
    """Push-forward of (line bundle class).(dualizing class) on mg1(g): N times ``beta_per_n``."""
    BETA_PUSH.check(g, r, d)
    return _times_cover_degree(g, r, d, beta_per_n(g, r, d))


def gamma(g: int, r: int, d: int) -> DivisorClass:
    """Push-forward of the section-bundle class on mg1(g): N times ``gamma_per_n``."""
    ALPHA_GAMMA_PUSH.check(g, r, d)
    return _times_cover_degree(g, r, d, gamma_per_n(g, r, d))


_CLOSED_FORMS = {ClassLabel.ALPHA: alpha, ClassLabel.BETA: beta, ClassLabel.GAMMA: gamma}


def closed_form(g: int, r: int, d: int, label: ClassLabel) -> DivisorClass:
    return _CLOSED_FORMS[label](g, r, d)


def combination(g: int, r: int, d: int, c_alpha, c_beta, c_gamma,
                pullback_part: DivisorClass | None = None) -> DivisorClass:
    """Push forward a combination of alpha, beta, gamma and a pulled-back class.

    The cover has degree N, so the push-forward of a pulled-back divisor is
    N times that divisor (projection formula).
    """
    COVER_DEGREE.check(g, r, d)
    space = PicSpace.mg1(g)
    out = DivisorClass.zero(space)
    for coeff, fn in ((c_alpha, alpha), (c_beta, beta), (c_gamma, gamma)):
        coeff = Fraction(coeff)
        if coeff != 0:
            out = out + fn(g, r, d).scale(coeff)
    if pullback_part is not None and not pullback_part.is_zero():
        if pullback_part.space != space:
            raise PreconditionError("pullback part must live on mg1(g)")
        out = out + pullback_part.scale(castelnuovo_count(g, r, d))
    return out


def solve_from_families(g: int, r: int, d: int, label: ClassLabel) -> PushforwardSolution:
    """Recover the push-forward from special-family data alone.

    Writing the unknown class as a*lambda - sum_{i<g} b_i delta_i + c*psi,
    three families constrain it:

    * moving marked point, one equation per h in 1..g-1:
      b_h - b_{g-h} + (2h-1) c = degree of the push-forward on that family
      (for even g the h = g/2 equation degenerates to (g-1)c = rhs and is
      kept, since it still pins c);
    * elliptic-tail family, one equation per epsilon_i, i in 2..g-2: the
      restriction of the unknown class must vanish;
    * genus-2-tail family: the restriction matches the known push-forward,
      compared in the reduced basis (lambda, delta_1, psi) because raw
      delta_0 coefficients are only defined modulo the genus-2 relation.

    The system has about twice as many equations as unknowns; it is solved
    by exact elimination and every redundant equation is required to hold.
    """
    TEST_FAMILIES.check(g, r, d)
    # Unknown columns a, b_0..b_{g-1}, c read lambda, -delta_i and psi; a row
    # names each symbol once, so each entry is set once.
    column = {LAMBDA: (0, False), PSI: (g + 1, False)}
    column.update((delta(i), (1 + i, True)) for i in range(g))

    def unknowns(row: Dict[str, Fraction]) -> list:
        # Zeros stay plain ints, which solve_unique skips cheaply.
        out = [0] * (g + 2)
        for sym, w in row.items():
            col, negate = column[sym]
            out[col] = -w if negate else w
        return out

    n = castelnuovo_count(g, r, d)
    rows = [unknowns(marked_point_row(g, h)) for h in range(1, g)]
    rhs = [marked_per_n(g, r, d, h, label) * n for h in range(1, g)]
    for row in elliptic_tail_rows(g).values():
        rows.append(unknowns(row))
        rhs.append(0)
    target = reduce_m21(push_m21(g, r, d, label))
    for sym, row in compose(GENUS2_REDUCTION, genus2_tail_rows(g)).items():
        rows.append(unknowns(row))
        rhs.append(target.get(sym))

    names = ["a"] + [f"b_{i}" for i in range(g)] + ["c"]
    try:
        x = linalg.solve_unique(rows, rhs)
    except linalg.InconsistentSystemError as exc:
        raise ConsistencyError(
            f"family data contradicts for ({g},{r},{d}) {label.value}: {exc}") from exc
    except linalg.RankDeficientError as exc:
        free = ", ".join(names[i] for i in exc.free_columns)
        raise ConsistencyError(
            f"family system for ({g},{r},{d}) {label.value} leaves {free} undetermined") from exc
    return PushforwardSolution(a=x[0], b=tuple(x[1:g + 1]), c=x[g + 1])


def annihilated_by_elliptic_tails(g: int, r: int, d: int, label: ClassLabel) -> bool:
    """Restriction of the closed form to the elliptic-tail family vanishes."""
    return pullback_i(g, closed_form(g, r, d, label)).is_zero()


def marked_degrees_match(g: int, r: int, d: int, label: ClassLabel) -> bool:
    """Closed-form degrees on the moving-point family match the family data for every h."""
    D = closed_form(g, r, d, label)
    return all(pullback_k(g, h, D) == push_marked(g, r, d, h, label)
               for h in range(1, g))


def genus2_restriction_matches(g: int, r: int, d: int, label: ClassLabel) -> bool:
    """Closed form restricted to the genus-2-tail family matches the family push-forward."""
    D = closed_form(g, r, d, label)
    return reduce_m21(pullback_j(g, D)) == reduce_m21(push_m21(g, r, d, label))
