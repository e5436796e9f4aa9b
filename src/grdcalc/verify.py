"""Cross-check driver: every dual-route identity in the package, in one sweep.

Each check recomputes a quantity along two independent routes and compares
exactly; a failure carries the first counterexample in full exact arithmetic.
The same sweep backs the ``verify`` CLI subcommand and the golden-file
regression mode.
"""

from __future__ import annotations

from fractions import Fraction

from . import families, invariants, linalg, picard, pushforward, schubert, slope
from .errors import ConsistencyError, PreconditionError
from .exact import format_rational, quotient
from .families import (ClassLabel, genus2_dualizing_class,
                       genus2_line_bundle_class, m21_push_product, marked_per_n,
                       push_m21, reconstruct_push_m21)
from .picard import LAMBDA, DivisorClass, PicSpace, delta, epsilon
from .slope import M_FAMILY_LIMIT
from .value import Value


# The sizes of the verify sweeps: their defaults, and the largest accepted;
# m_max shares its bound, slope.M_FAMILY_LIMIT, with `slope --sweep`.  At
# g_max 60 and m_max 1000 the battery takes 0.51 s as a process (best of 7),
# 0.64 s with ``golden_payload``, and its largest row,
# assembly-vs-closed-form, 0.15-0.16 s in-process (Python 3.11, 2 vCPUs).
DEFAULT_G_MAX = 12
DEFAULT_M_MAX = 15
G_MAX_LIMIT = 60
# The fixed sweeps of the Schubert oracle and the two boundary-class checks.
ORACLE_MAX_DIM = 30
ORACLE_MAX_WEIGHT = 6
EPSILON_GENERA = range(6, 31)
DELTA_PULLBACK_GENERA = range(5, 31)


class CheckResult(Value):
    """One row of the battery; equal by fields, and unhashable."""

    __slots__ = ("name", "passed", "detail")
    __hash__ = None

    def __init__(self, name: str, passed: bool, detail: str):
        self.name, self.passed, self.detail = name, passed, detail

    def payload(self) -> dict:
        """The row as a JSON-ready dict, as ``verify --format`` emits it."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _sweep_triples(g_max: int, domain: invariants.Domain) -> list[invariants.GrdParams]:
    """The rho = 0 triples with g <= g_max that the domain admits."""
    return [t for t in invariants.rho_zero_triples(g_max) if domain.admits(t)]


def check_schubert_oracle():
    """Closed factorial form vs. Pieri expansion over every small shape.

    Exhausts shapes with dim <= ORACLE_MAX_DIM and all indices of weight <=
    ORACLE_MAX_WEIGHT whose complementary degree is a multiple of r (so a
    power of zeta can fill it); shapes with r = 0 admit every power, checked
    up to a small cap.
    """
    cases = 0
    for r in range(0, ORACLE_MAX_DIM + 1):
        for width in range(0, ORACLE_MAX_DIM // (r + 1) + 1):
            shape = schubert.GrassShape(r, r + width)
            for b in schubert.iter_box_indices(shape, ORACLE_MAX_WEIGHT):
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
                        return False, (f"shape (r={r}, d={r + width}), k={k}, b={list(b)}: "
                                       f"closed {closed} != pieri {expanded}")
    return True, f"{cases} integrals agree"


def _count_and_top_power(g: int, r: int, d: int):
    """The Castelnuovo count N of (g, r, d) and the Pieri integral of zeta^g."""
    n = invariants.castelnuovo_count(g, r, d)
    return n, schubert.zeta_power_integral_pieri(schubert.GrassShape(r, d), g, (0,) * (r + 1))


def check_count_matches_degree(g_max: int):
    """Castelnuovo count equals the top self-intersection of zeta, per triple."""
    triples = _sweep_triples(g_max, invariants.COVER_DEGREE)
    for t in triples:
        n, via = _count_and_top_power(t.g, t.r, t.d)
        if n != via:
            return False, f"({t.g},{t.r},{t.d}): count {n} != integral {via}"
    return True, f"{len(triples)} triples agree"


def check_count_m_family():
    """Count vs. top zeta power for the m-family members m = 3, 4, 5.

    These are (21,6,24), (36,8,40) and (55,10,60), the largest Pieri sweeps.
    """
    agreed = []
    for m in (3, 4, 5):
        g, r, d = slope.m_family_triple(m)
        n, via = _count_and_top_power(g, r, d)
        if n != via:
            return False, (f"({g},{r},{d}): count {format_rational(n)}, "
                           f"zeta^{g} integral {format_rational(via)}")
        agreed.append(f"({g},{r},{d}) {format_rational(n)}")
    return True, "count = zeta^g integral: " + ", ".join(agreed)


def check_weierstrass_dual(g_max: int):
    """Schubert integrals vs. closed forms for the Weierstrass-fiber totals.

    The closed total is the coefficient of the Weierstrass class W in
    ``push_m21``: N times the one read from ``families.m21_per_n``.
    """
    done = 0
    for t in _sweep_triples(g_max, invariants.WEIERSTRASS):
        n = invariants.castelnuovo_count(t.g, t.r, t.d)
        for label, total in ((ClassLabel.ALPHA, families.weierstrass_alpha),
                             (ClassLabel.GAMMA, families.weierstrass_gamma)):
            schubert_total = total(t.g, t.r, t.d)
            closed_total = families.m21_per_n(t.g, t.r, t.d, label)[0] * n
            if schubert_total != closed_total:
                return False, (f"({t.g},{t.r},{t.d}) {label.value}: "
                               f"schubert {schubert_total} != closed {closed_total}")
        done += 1
    return True, f"{done} triples, both classes agree"


def check_genus2_engine():
    """Universal-curve products reproduce 12*lambda - delta_0 - 8*psi for alpha and beta."""
    line = genus2_line_bundle_class()
    expected = DivisorClass(PicSpace.m21(), {LAMBDA: 12, delta(0): -1, "psi": -8})
    got_alpha = m21_push_product(line, line)
    got_beta = m21_push_product(line, genus2_dualizing_class())
    if got_alpha != expected or got_beta != expected:
        return False, f"alpha {got_alpha}, beta {got_beta}, expected {expected}"
    return True, "squared and mixed products match"


def check_genus2_reconstruction(g_max: int):
    """Sheets plus Weierstrass data rebuild the genus-2-tail push-forwards."""
    done = 0
    for t in _sweep_triples(g_max, invariants.WEIERSTRASS):
        for label in ClassLabel:
            rebuilt = reconstruct_push_m21(t.g, t.r, t.d, label)
            direct = push_m21(t.g, t.r, t.d, label)
            if rebuilt != direct:
                return False, f"({t.g},{t.r},{t.d}) {label.value}: {rebuilt} != {direct}"
            done += 1
    return True, f"{done} class/triple pairs agree"


# What a failed equation of each family says, in the order they are reported.
_FAMILY_MISMATCH = {"elliptic-tail": "elliptic-tail restriction nonzero",
                    "marked-point": "marked-point degree mismatch",
                    "genus-2": "genus-2 restriction mismatch"}


def check_assembly(g_max: int):
    """The closed forms are the family system's unique solution, coefficient for
    coefficient.  A failure also names the first family, in ``_FAMILY_MISMATCH``
    order, whose equations the closed form breaks; a solver slip breaks none."""
    done = 0
    for t in _sweep_triples(g_max, invariants.TEST_FAMILIES):
        for label in ClassLabel:
            closed = pushforward.closed_form(t.g, t.r, t.d, label)
            try:
                solved = pushforward.solve_from_families(t.g, t.r, t.d, label)
            except ConsistencyError as exc:
                failure = f"ConsistencyError: {exc}"
            else:
                assembled = solved.as_divisor_class(t.g)
                if assembled == closed:
                    done += 1
                    continue
                failure = (f"({t.g},{t.r},{t.d}) {label.value}: "
                           f"assembled {assembled} != closed {closed}")
            equations = pushforward.family_equations(t.g, t.r, t.d, label)
            # One restriction reads the class once for every equation.
            got = picard.restrict(dict(enumerate(row for _, row, _ in equations)), closed)
            failed = {family for i, (family, _, value) in enumerate(equations) if got[i] != value}
            broken = next((mismatch for family, mismatch in _FAMILY_MISMATCH.items()
                           if family in failed), "no family equation fails")
            return False, f"{failure}; {broken}"
    return True, f"{done} solutions agree"


def check_epsilon_matrix():
    """Nonsingularity of the test-curve intersection matrix."""
    for g in EPSILON_GENERA:
        try:
            linalg.solve_unique(picard.epsilon_intersection_matrix(g), [0] * (g - 3), g - 3)
        except linalg.RankDeficientError:
            return False, f"g={g}: determinant 0"
    return True, f"g={EPSILON_GENERA[0]}..{EPSILON_GENERA[-1]} all nonsingular"


def check_delta_pullback_identity():
    """i*(delta_1) + i*(delta_{g-1}) equals sum_i i(i-g)/(g-1) epsilon_i, symbolically."""
    for g in DELTA_PULLBACK_GENERA:
        space = PicSpace.mg1(g)
        total = picard.pullback_i(g, DivisorClass(space, {delta(1): 1})) \
            + picard.pullback_i(g, DivisorClass(space, {delta(g - 1): 1}))
        expected = DivisorClass(PicSpace.m0g(g), {
            epsilon(i): Fraction(i * (i - g), g - 1) for i in range(2, g - 1)})
        if total != expected:
            return False, f"g={g}: {total} != {expected}"
    return True, f"g={DELTA_PULLBACK_GENERA[0]}..{DELTA_PULLBACK_GENERA[-1]} identity holds"


def check_marked_gamma_identity(g_max: int):
    """Marked-point gamma degrees per cover degree N match the vanishing-order sum
    vanishing_sum(h,r,d) - (r+1)d, for every h."""
    done = 0
    for t in _sweep_triples(g_max, invariants.COVER_DEGREE):
        for h in range(1, t.g):
            if (marked_per_n(t.g, t.r, t.d, h, ClassLabel.GAMMA)
                    != invariants.vanishing_sum(h, t.r, t.d) - (t.r + 1) * t.d):
                return False, f"({t.g},{t.r},{t.d}), h={h}: degrees disagree"
            done += 1
    return True, f"{done} degrees agree"


def check_m_family(m_max: int):
    """Pointwise and symbolic slope-gap identity for the quadratic family."""
    reports = slope.m_family_reports(m_max)
    if not slope.m_family_gap_identity(reports):
        return False, f"pointwise mismatch within m <= {m_max}"
    if not slope.symbolic_gap_identity():
        return False, "symbolic rational-function identity fails"
    if reports[0].gap != 0:
        return False, f"m=1 gap {format_rational(reports[0].gap)} != 0"
    return True, f"m=1..{m_max} pointwise + symbolic identity, gap(1)=0"


def check_genus21_slope():
    rep = slope.slope_report(21, 6, 24)
    ok = (rep.lambda_coeff == Fraction(2459, 95) and rep.delta0_coeff == Fraction(-377, 95)
          and rep.ratio == Fraction(2459, 377) and rep.bound == Fraction(72, 11)
          and rep.violates)
    return ok, f"ratio {format_rational(rep.ratio)} vs bound {format_rational(rep.bound)}"


def check_genus10_slope():
    rep = slope.m_family_report(2)
    return rep.ratio == 7 and rep.violates, f"ratio {format_rational(rep.ratio)}"


def quadric_from_families(g: int, r: int, d: int):
    """``slope.quadric_lambda_delta0`` from the family assembly alone.

    ``slope.quadric_per_n`` of the three assembled classes' lambda and delta_0
    coefficients, each over the cover degree N, divided once each.
    """
    n = invariants.castelnuovo_count(g, r, d)
    solved = (pushforward.solve_from_families(g, r, d, label).coeffs for label in ClassLabel)
    lam, d0, den = slope.quadric_per_n(r, *((c[LAMBDA], c[delta(0)], n) for c in solved))
    return quotient(lam, den), quotient(d0, den)


def check_slope_vs_assembly(g_max: int):
    """Quadric slope coefficients, assembled vs. closed, for the m-family
    members m = 2..5 and the pencils (r = 1) of the sweep."""
    members = [slope.m_family_triple(m) for m in range(2, 6)]
    pencils = [(t.g, t.r, t.d) for t in _sweep_triples(g_max, invariants.TEST_FAMILIES)
               if t.r == 1]
    ratios = []
    for g, r, d in members + pencils:
        lam, d0 = quadric_from_families(g, r, d)
        closed_lam, closed_d0 = slope.quadric_lambda_delta0(g, r, d)
        if (lam, d0) != (closed_lam, closed_d0):
            return False, (f"({g},{r},{d}): (lambda, delta_0) assembled ({lam}, {d0}), "
                           f"closed ({closed_lam}, {closed_d0})")
        if (g, r, d) in members:
            ratios.append(f"({g},{r},{d}) {slope.ratio_bound_gap(g, lam, d0)[0]}")
    return True, (f"m-family slopes from family data: {', '.join(ratios)}; "
                  f"{len(pencils)} pencils agree")


# The battery in report order: (row name, check returning (passed, detail), sweep it reads).
ROWS = (
    ("schubert-oracle", check_schubert_oracle, None),
    ("count-vs-degree", check_count_matches_degree, "g_max"),
    ("weierstrass-dual", check_weierstrass_dual, "g_max"),
    ("genus2-engine", check_genus2_engine, None),
    ("genus2-reconstruction", check_genus2_reconstruction, "g_max"),
    ("assembly-vs-closed-form", check_assembly, "g_max"),
    ("epsilon-nonsingular", check_epsilon_matrix, None),
    ("delta-pullback-identity", check_delta_pullback_identity, None),
    ("marked-gamma-identity", check_marked_gamma_identity, "g_max"),
    ("m-family-gap", check_m_family, "m_max"),
    ("genus21-slope", check_genus21_slope, None),
    ("genus10-slope", check_genus10_slope, None),
    ("slope-vs-assembly", check_slope_vs_assembly, "g_max"),
    ("count-m-family", check_count_m_family, None),
)


def run_checks(g_max: int = DEFAULT_G_MAX, m_max: int = DEFAULT_M_MAX) -> list[CheckResult]:
    """Run the whole cross-check battery.

    g_max bounds the triple sweeps (5 to G_MAX_LIMIT) and m_max the family
    sweep (1 to M_FAMILY_LIMIT).  Every check runs in isolation: one that
    raises reports FAIL and the others still run.
    """
    sweeps = {"g_max": g_max, "m_max": m_max}
    for name, low, high in (("g_max", 5, G_MAX_LIMIT), ("m_max", 1, M_FAMILY_LIMIT)):
        if not low <= sweeps[name] <= high:
            bound = f">= {low}" if sweeps[name] < low else f"<= {high}"
            flag = "--" + name.replace("_", "-")
            raise PreconditionError(
                f"verification sweep needs {name} {bound} ({flag}), got {sweeps[name]}")
    results = []
    for name, check, sweep in ROWS:
        try:
            passed, detail = check() if sweep is None else check(sweeps[sweep])
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results


def golden_payload(g_max: int = DEFAULT_G_MAX, m_max: int = DEFAULT_M_MAX) -> dict:
    """Deterministic value dump for golden-file regression comparisons.

    Holds the exact push-forward coefficient maps for every swept triple and
    the slope reports of the m-family (``slope.m_family_reports``, the sweep of
    ``slope --sweep``); serialized values are strings, so the payload is
    stable across platforms and runs.
    """
    payload: dict = {"g_max": g_max, "m_max": m_max, "pushforwards": {}, "slopes": {}}
    for t in _sweep_triples(g_max, invariants.ALPHA_GAMMA_PUSH):
        payload["pushforwards"][f"{t.g},{t.r},{t.d}"] = {
            label.value: pushforward.closed_form(t.g, t.r, t.d, label).payload()
            for label in ClassLabel}
    for m, report in enumerate(slope.m_family_reports(m_max), 1):
        payload["slopes"][str(m)] = report.payload()
    return payload
