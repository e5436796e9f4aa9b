"""Closed-form push-forwards of alpha, beta, gamma and their re-derivation.

For rho = 0 the series space covers the moduli space of pointed genus-g
curves with degree N, and the push-forward of each tautological class is an
explicit combination of lambda, psi and the boundary classes delta_i.  The
closed forms are stated here directly; ``solve_from_families`` re-derives
them by solving the special-family data (``family_equations``) as an
over-determined exact linear system, which must be consistent with a unique
solution.  The two routes agreeing coefficient-for-coefficient is the
package's central check.  The printed delta_i, i >= 1, are the push-forward
in the code's normalisation; the quadric class built from them
(``slope.quadric_per_n``) is not claimed to be the class of the closure of
the quadric locus.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import ConsistencyError, PreconditionError
from .exact import format_rational
from .families import ClassLabel, m21_coefficient, m21_per_n, marked_per_n
from .invariants import (ALPHA_GAMMA_PUSH, BETA_PUSH, COVER_DEGREE, TEST_FAMILIES,
                         PerCoverDegree, alpha_per_n, beta_per_n, castelnuovo_count,
                         gamma_per_n)
from .picard import (GENUS2_REDUCTION, LAMBDA, PSI, DivisorClass, PicSpace, Row, compose,
                     delta, elliptic_tail_rows, genus2_tail_rows, marked_point_row, mg1_columns)


class PushforwardSolution:
    """The coefficients that ``solve_from_families`` solved for, keyed by basis symbol."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[str, Fraction]):
        self.coeffs = coeffs

    def as_divisor_class(self, g: int) -> DivisorClass:
        if len(self.coeffs) != g + 2:
            raise PreconditionError(f"need {g + 2} coefficients on mg1({g}), got {len(self.coeffs)}")
        return DivisorClass(PicSpace.mg1(g), self.coeffs)


def _times_cover_degree(g: int, r: int, d: int, per_n: PerCoverDegree) -> DivisorClass:
    """The class on mg1(g) with N times the numerators of per_n, over its one denominator."""
    n = castelnuovo_count(g, r, d)
    items = {LAMBDA: per_n.lam * n, delta(0): per_n.delta0 * n, PSI: per_n.psi * n}
    for i in range(1, g):
        items[delta(i)] = per_n.delta_i(i) * n
    return DivisorClass(PicSpace.mg1(g), items, per_n.den)


def _per_n(g: int, r: int, d: int, label: ClassLabel) -> PerCoverDegree:
    """The per-N coefficients of a closed form, after its domain check.

    The functions are looked up at each call, so a patched module attribute
    takes effect.
    """
    domain, per_n = {ClassLabel.ALPHA: (ALPHA_GAMMA_PUSH, alpha_per_n),
                     ClassLabel.BETA: (BETA_PUSH, beta_per_n),
                     ClassLabel.GAMMA: (ALPHA_GAMMA_PUSH, gamma_per_n)}[label]
    domain.check(g, r, d)
    return per_n(g, r, d)


def alpha(g: int, r: int, d: int) -> DivisorClass:
    """Push-forward of the squared line-bundle class on mg1(g): N times ``alpha_per_n``."""
    return _times_cover_degree(g, r, d, _per_n(g, r, d, ClassLabel.ALPHA))


def beta(g: int, r: int, d: int) -> DivisorClass:
    """Push-forward of (line bundle class).(dualizing class) on mg1(g): N times ``beta_per_n``."""
    return _times_cover_degree(g, r, d, _per_n(g, r, d, ClassLabel.BETA))


def gamma(g: int, r: int, d: int) -> DivisorClass:
    """Push-forward of the section-bundle class on mg1(g): N times ``gamma_per_n``."""
    return _times_cover_degree(g, r, d, _per_n(g, r, d, ClassLabel.GAMMA))


_CLOSED_FORMS = {ClassLabel.ALPHA: alpha, ClassLabel.BETA: beta, ClassLabel.GAMMA: gamma}


def closed_form(g: int, r: int, d: int, label: ClassLabel) -> DivisorClass:
    return _CLOSED_FORMS[label](g, r, d)


def refuse_unprintable(g: int, r: int, d: int, label: ClassLabel) -> None:
    """Refuse, before it is built, a closed form that N alone shows cannot be printed.

    After the closed form's own domain check, its psi coefficient is
    N * psi / den with psi a nonzero int (d >= 1), so its numerator in
    lowest terms is at least N // den.  Where ``format_rational`` refuses
    that int, it would refuse the class, so it is refused here with the
    same message; otherwise nothing is refused.
    """
    per_n = _per_n(g, r, d, label)
    if per_n.psi:
        format_rational(castelnuovo_count(g, r, d) // per_n.den)


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


def family_equations(g: int, r: int, d: int,
                     label: ClassLabel) -> list[tuple[str, Row, int | Fraction]]:
    """The special-family data on the push-forward, one (family, row, value) per equation.

    The push-forward of ``label`` evaluates to ``value`` on each restriction
    ``row``, whose mg1(g) sources are the columns of ``mg1_columns``.  In order:

    * ``marked-point``, one per h in 1..g-1: the degree on the moving-point
      family is N times ``marked_per_n`` (for even g the h = g/2 row is
      (g-1)*psi alone, kept since it still pins psi);
    * ``elliptic-tail``, one per epsilon_i, i in 2..g-2: the restriction vanishes,
      so its integer rows (times (g-1)(g-2), ``elliptic_tail_rows``) serve as they are;
    * ``genus-2``: the restriction to the genus-2-tail family matches
      ``push_m21``, compared in the reduced basis (lambda, delta_1, psi)
      because raw delta_0 coefficients are only defined modulo the genus-2
      relation.  ``push_m21`` is a combination of two classes with no
      delta_0 term, so ``m21_coefficient`` reads it as it is: reducing it would return it.

    N is computed once: as in ``push_marked`` and ``push_m21``, the per-N
    values (``marked_per_n``, ``m21_per_n``) are multiplied by it here.  The
    two coefficients of ``m21_per_n`` are put over one denominator, so each
    genus-2 value is one ``Fraction`` of integer numerators.
    """
    TEST_FAMILIES.check(g, r, d)
    n = castelnuovo_count(g, r, d)
    equations = [("marked-point", marked_point_row(g, h), marked_per_n(g, r, d, h, label) * n)
                 for h in range(1, g)]
    equations += [("elliptic-tail", row, 0) for row in elliptic_tail_rows(g)]
    (pa, qa), (pb, qb) = (c.as_integer_ratio() for c in m21_per_n(g, r, d, label))
    an, bn, den = pa * qb * n, pb * qa * n, qa * qb
    equations += [("genus-2", row, Fraction(m21_coefficient(an, bn, sym), den))
                  for sym, row in compose(GENUS2_REDUCTION, genus2_tail_rows(g)).items()]
    return equations


def solve_from_families(g: int, r: int, d: int, label: ClassLabel) -> PushforwardSolution:
    """Recover the push-forward from special-family data alone.

    One unknown per basis symbol of mg1(g), in the column order of
    ``mg1_columns`` (lambda, delta_0, ..., delta_{g-1}, psi), constrained by
    ``family_equations``, whose rows are already keyed by those columns.
    The system is solved by exact elimination and every redundant equation
    is required to hold.
    """
    equations = family_equations(g, r, d, label)
    unknowns = mg1_columns(g)
    try:
        x = linalg.solve_unique([row for _, row, _ in equations],
                                [value for _, _, value in equations], len(unknowns))
    except linalg.InconsistentSystemError as exc:
        raise ConsistencyError(
            f"family data contradicts for ({g},{r},{d}) {label.value}: {exc}") from exc
    except linalg.RankDeficientError as exc:
        free = ", ".join(unknowns[i] for i in exc.free_columns)
        raise ConsistencyError(
            f"family system for ({g},{r},{d}) {label.value} leaves {free} undetermined") from exc
    return PushforwardSolution(dict(zip(unknowns, x)))
