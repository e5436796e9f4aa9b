"""Cross-check driver: every dual-route identity in the package, in one sweep.

Each check recomputes a quantity along two independent routes and compares
exactly; a failure carries the first counterexample in full exact arithmetic.
The same sweep backs the ``verify`` CLI subcommand and the golden-file
regression mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from . import invariants, picard, pushforward, schubert, slope
from .errors import PreconditionError
from .exact import format_rational
from .families import (ClassLabel, genus2_dualizing_class,
                       genus2_line_bundle_class, m21_push_product,
                       marked_gamma_vanishing_identity, push_m21,
                       reconstruct_push_m21)
from .picard import LAMBDA, DivisorClass, PicSpace, delta, epsilon, make_class


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sweep_triples(g_max: int, need_box: bool = False) -> List[invariants.GrdParams]:
    triples = invariants.rho_zero_triples(g_max)
    if need_box:
        triples = [t for t in triples if t.d - t.r >= 3]
    return triples


def check_schubert_oracle(max_dim: int = 30, max_weight: int = 6) -> CheckResult:
    """Closed factorial form vs. Pieri expansion over every small shape.

    Exhausts shapes with dim <= max_dim and all indices of weight <= max_weight
    whose complementary degree is a multiple of r (so a power of zeta can fill
    it); shapes with r = 0 admit every power, checked up to a small cap.
    """
    cases = 0
    for r in range(0, max_dim + 1):
        for width in range(0, max_dim + 1):
            shape = schubert.GrassShape(r, r + width)
            if shape.dim > max_dim:
                continue
            for b in schubert.iter_box_indices(shape, max_weight):
                rest = shape.dim - sum(b)
                if r == 0:
                    ks = [0, 1, 2] if rest == 0 else []
                elif rest % r == 0:
                    ks = [rest // r]
                else:
                    continue
                for k in ks:
                    closed = schubert.special_power_integral(shape, k, b)
                    expanded = schubert.zeta_power_integral_pieri(shape, k, b)
                    cases += 1
                    if closed != expanded:
                        return CheckResult(
                            "schubert-oracle", False,
                            f"shape (r={r}, d={r + width}), k={k}, b={list(b)}: "
                            f"closed {closed} != pieri {expanded}")
    return CheckResult("schubert-oracle", True, f"{cases} integrals agree")


def check_count_matches_degree(g_max: int) -> CheckResult:
    """Castelnuovo count equals the top self-intersection of zeta, per triple."""
    checked = []
    for t in _sweep_triples(g_max):
        n = invariants.castelnuovo_count(t.g, t.r, t.d)
        shape = schubert.GrassShape(t.r, t.d)
        via = schubert.zeta_power_integral_pieri(shape, t.g, (0,) * (t.r + 1))
        if n != via:
            return CheckResult(
                "count-vs-degree", False,
                f"({t.g},{t.r},{t.d}): count {n} != integral {via}")
        checked.append(t)
    return CheckResult("count-vs-degree", True, f"{len(checked)} triples agree")


def check_count_genus21() -> CheckResult:
    """The genus-21 count through both routes (large Pieri sweep)."""
    n = invariants.castelnuovo_count(21, 6, 24)
    via = schubert.zeta_power_integral_pieri(schubert.GrassShape(6, 24), 21, (0,) * 7)
    ok = n == via
    return CheckResult("count-genus21", ok,
                       f"count {format_rational(n)}, zeta^21 integral {format_rational(via)}")


def check_weierstrass_dual(g_max: int) -> CheckResult:
    """Closed forms vs. Schubert integrals for the Weierstrass-fiber totals.

    The dual comparison lives inside weierstrass_alpha / weierstrass_gamma;
    calling them is the check.  Triples whose box cannot hold the sharpest
    index (d - r < 3) are outside the domain and skipped.
    """
    from .families import weierstrass_alpha, weierstrass_gamma
    done = 0
    for t in _sweep_triples(g_max, need_box=True):
        if t.g < 3:
            continue
        weierstrass_alpha(t.g, t.r, t.d)
        weierstrass_gamma(t.g, t.r, t.d)
        done += 1
    return CheckResult("weierstrass-dual", True, f"{done} triples, both classes agree")


def check_genus2_engine() -> CheckResult:
    """Universal-curve products reproduce 12*lambda - delta_0 - 8*psi for alpha and beta."""
    line = genus2_line_bundle_class()
    expected = make_class(PicSpace.m21(), {LAMBDA: 12, delta(0): -1, "psi": -8})
    got_alpha = m21_push_product(line, line)
    got_beta = m21_push_product(line, genus2_dualizing_class())
    if got_alpha != expected or got_beta != expected:
        return CheckResult("genus2-engine", False,
                           f"alpha {got_alpha}, beta {got_beta}, expected {expected}")
    return CheckResult("genus2-engine", True, "squared and mixed products match")


def check_genus2_reconstruction(g_max: int) -> CheckResult:
    """Sheets plus Weierstrass data rebuild the genus-2-tail push-forwards."""
    done = 0
    for t in _sweep_triples(g_max, need_box=True):
        if t.g < 3:
            continue
        for label in ClassLabel:
            rebuilt = reconstruct_push_m21(t.g, t.r, t.d, label)
            direct = push_m21(t.g, t.r, t.d, label)
            if rebuilt != direct:
                return CheckResult(
                    "genus2-reconstruction", False,
                    f"({t.g},{t.r},{t.d}) {label.value}: {rebuilt} != {direct}")
            done += 1
    return CheckResult("genus2-reconstruction", True, f"{done} class/triple pairs agree")


def check_assembly(g_max: int) -> CheckResult:
    """Family assembly reproduces every closed form, coefficient for coefficient."""
    done = 0
    for t in _sweep_triples(g_max, need_box=True):
        if t.g < 5:
            continue
        for label in ClassLabel:
            assembled = pushforward.solve_from_families(t.g, t.r, t.d, label)
            closed = pushforward.closed_form(t.g, t.r, t.d, label)
            if assembled.as_divisor_class(t.g) != closed:
                return CheckResult(
                    "assembly-vs-closed-form", False,
                    f"({t.g},{t.r},{t.d}) {label.value}: "
                    f"assembled {assembled.as_divisor_class(t.g)} != closed {closed}")
            done += 1
    return CheckResult("assembly-vs-closed-form", True, f"{done} solutions agree")


def check_family_restrictions(g_max: int) -> CheckResult:
    """Closed forms restrict correctly to all three families."""
    done = 0
    for t in _sweep_triples(g_max):
        if t.g < 5:
            continue
        for label in ClassLabel:
            if not pushforward.annihilated_by_elliptic_tails(t.g, t.r, t.d, label):
                return CheckResult("family-restrictions", False,
                                   f"({t.g},{t.r},{t.d}) {label.value}: elliptic-tail restriction nonzero")
            if not pushforward.marked_degrees_match(t.g, t.r, t.d, label):
                return CheckResult("family-restrictions", False,
                                   f"({t.g},{t.r},{t.d}) {label.value}: marked-point degree mismatch")
            if not pushforward.genus2_restriction_matches(t.g, t.r, t.d, label):
                return CheckResult("family-restrictions", False,
                                   f"({t.g},{t.r},{t.d}) {label.value}: genus-2 restriction mismatch")
            done += 1
    return CheckResult("family-restrictions", True, f"{done} class/triple pairs agree")


def check_epsilon_matrix(g_lo: int = 6, g_hi: int = 30) -> CheckResult:
    """Nonsingularity of the test-curve intersection matrix."""
    for g in range(g_lo, g_hi + 1):
        det = picard.epsilon_matrix_determinant(g)
        if det == 0:
            return CheckResult("epsilon-nonsingular", False, f"g={g}: determinant 0")
    return CheckResult("epsilon-nonsingular", True, f"g={g_lo}..{g_hi} all nonsingular")


def check_delta_pullback_identity(g_lo: int = 5, g_hi: int = 30) -> CheckResult:
    """i*(delta_1) + i*(delta_{g-1}) equals sum_i i(i-g)/(g-1) epsilon_i, symbolically."""
    for g in range(g_lo, g_hi + 1):
        space = PicSpace.mg1(g)
        total = picard.pullback_i(g, DivisorClass.basis_vector(space, delta(1))) \
            + picard.pullback_i(g, DivisorClass.basis_vector(space, delta(g - 1)))
        expected = make_class(PicSpace.m0g(g), {
            epsilon(i): Fraction(i * (i - g), g - 1) for i in range(2, g - 1)})
        if total != expected:
            return CheckResult("delta-pullback-identity", False,
                               f"g={g}: {total} != {expected}")
    return CheckResult("delta-pullback-identity", True, f"g={g_lo}..{g_hi} identity holds")


def check_marked_gamma_identity(g_max: int) -> CheckResult:
    """Marked-point gamma degrees match the vanishing-order bookkeeping for every h."""
    done = 0
    for t in _sweep_triples(g_max):
        for h in range(1, t.g):
            if not marked_gamma_vanishing_identity(t.g, t.r, t.d, h):
                return CheckResult("marked-gamma-identity", False,
                                   f"({t.g},{t.r},{t.d}), h={h}: degrees disagree")
            done += 1
    return CheckResult("marked-gamma-identity", True, f"{done} degrees agree")


def check_m_family(m_max: int) -> CheckResult:
    """Pointwise and symbolic slope-gap identity for the quadratic family."""
    if not slope.m_family_gap_identity(m_max):
        return CheckResult("m-family-gap", False, f"pointwise mismatch within m <= {m_max}")
    if not slope.symbolic_gap_identity():
        return CheckResult("m-family-gap", False, "symbolic rational-function identity fails")
    gap1 = slope.m_family_report(1)
    if gap1.gap != 0:
        return CheckResult("m-family-gap", False,
                           f"m=1 gap {format_rational(gap1.gap)} != 0")
    return CheckResult("m-family-gap", True,
                       f"m=1..{m_max} pointwise + symbolic identity, gap(1)=0")


def check_genus21_slope() -> CheckResult:
    rep = slope.slope_report(21, 6, 24)
    ok = (rep.lambda_coeff == Fraction(2459, 95) and rep.delta0_coeff == Fraction(-377, 95)
          and rep.ratio == Fraction(2459, 377) and rep.bound == Fraction(72, 11)
          and rep.violates)
    return CheckResult("genus21-slope", ok,
                       f"ratio {format_rational(rep.ratio)} vs bound {format_rational(rep.bound)}")


def check_genus10_slope() -> CheckResult:
    rep = slope.m_family_report(2)
    ok = rep.ratio == 7 and rep.violates
    return CheckResult("genus10-slope", ok, f"ratio {format_rational(rep.ratio)}")


def run_checks(g_max: int = 12, m_max: int = 15, include_genus21_sweep: bool = True) -> List[CheckResult]:
    """Run the whole cross-check battery.

    g_max bounds the triple sweeps (the acceptance run uses 12) and m_max the
    family sweep.  The genus-21 Pieri sweep is the single expensive item and
    can be excluded for quick runs.
    """
    if g_max < 5:
        raise PreconditionError("verification sweep needs g_max >= 5")
    if m_max < 1:
        raise PreconditionError("verification sweep needs m_max >= 1")
    results = [
        check_schubert_oracle(),
        check_count_matches_degree(g_max),
        check_weierstrass_dual(g_max),
        check_genus2_engine(),
        check_genus2_reconstruction(g_max),
        check_assembly(g_max),
        check_family_restrictions(g_max),
        check_epsilon_matrix(),
        check_delta_pullback_identity(),
        check_marked_gamma_identity(g_max),
        check_m_family(m_max),
        check_genus21_slope(),
        check_genus10_slope(),
    ]
    if include_genus21_sweep:
        results.append(check_count_genus21())
    return results


def golden_payload(g_max: int = 12, m_max: int = 15) -> Dict:
    """Deterministic value dump for golden-file regression comparisons.

    Holds the exact push-forward coefficient maps for every swept triple and
    the slope reports of the m-family; serialized values are strings, so the
    payload is stable across platforms and runs.
    """
    payload: Dict = {"g_max": g_max, "m_max": m_max, "pushforwards": {}, "slopes": {}}
    for t in _sweep_triples(g_max):
        if t.g < 3:
            continue
        payload["pushforwards"][f"{t.g},{t.r},{t.d}"] = {
            label.value: pushforward.closed_form(t.g, t.r, t.d, label).payload()
            for label in ClassLabel}
    for m in range(1, m_max + 1):
        payload["slopes"][str(m)] = slope.m_family_report(m).payload()
    return payload
