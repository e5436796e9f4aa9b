from fractions import Fraction

import pytest

from grdcalc import families, invariants, linalg, picard, pushforward, schubert, slope, verify
from grdcalc.errors import ConsistencyError
from grdcalc.families import ClassLabel
from grdcalc.picard import DivisorClass, PicSpace


def test_a_raising_check_fails_alone(monkeypatch):
    def broken(g, r, d):
        raise ConsistencyError(f"injected at ({g},{r},{d})")

    monkeypatch.setattr(families, "weierstrass_alpha", broken)
    results = verify.run_checks(5, 3)
    assert len(results) == len(verify.ROWS)
    failed = {rs.name: rs.detail for rs in results if not rs.passed}
    # The genus-2 reconstruction reads the Weierstrass totals too.
    assert set(failed) == {"weierstrass-dual", "genus2-reconstruction"}
    assert failed["weierstrass-dual"] == "ConsistencyError: injected at (4,3,6)"


def test_weierstrass_dual_catches_a_schubert_slip(monkeypatch):
    # Off by one only on the alpha index (1, 2, 3, ...): at (4,3,6) the closed
    # alpha total is 0 (2g - 2 - d = 0) and the Schubert total becomes -4.
    true_integral = families.special_power_integral

    def slipped(shape, k, b):
        return true_integral(shape, k, b) + (tuple(b[:2]) == (1, 2))

    monkeypatch.setattr(families, "special_power_integral", slipped)
    results = {rs.name: rs for rs in verify.run_checks(5, 3)}
    assert results["weierstrass-dual"].detail == "(4,3,6) alpha: schubert -4 != closed 0"
    assert results["genus2-reconstruction"].detail == (
        "(4,3,6) alpha: DivisorClass(m21, 6*lambda + -20*psi + 6*delta_1)"
        " != DivisorClass(m21, 2*lambda + -8*psi + 2*delta_1)")
    assert [name for name, rs in results.items() if not rs.passed] == [
        "weierstrass-dual", "genus2-reconstruction"]


def test_slope_vs_assembly_catches_a_closed_form_slip(monkeypatch):
    # Only the slope module's closed gamma is off; the push-forward module
    # and hence the family assembly keep the true one.
    true_gamma = slope.gamma_per_n

    def off(g, r, d):
        c = true_gamma(g, r, d)
        c.delta0 += Fraction(1, 10 ** 6) * c.den
        return c

    monkeypatch.setattr(slope, "gamma_per_n", off)
    results = {rs.name: rs for rs in verify.run_checks(5, 3)}
    assert not results["slope-vs-assembly"].passed
    assert results["slope-vs-assembly"].detail.startswith("(10,4,12): (lambda, delta_0) assembled")
    assert results["assembly-vs-closed-form"].passed


def test_a_singular_boundary_matrix_fails_epsilon_nonsingular(monkeypatch):
    true_matrix = picard.epsilon_intersection_matrix

    def singular_at_9(g):
        rows = true_matrix(g)
        if g == 9:
            rows[2] = {c: 2 * x for c, x in rows[1].items()}
        return rows

    monkeypatch.setattr(picard, "epsilon_intersection_matrix", singular_at_9)
    assert verify.check_epsilon_matrix() == (False, "g=9: determinant 0")


def _class_slip(true):
    # 10^-6 per N on the lambda entry of the quadric class that every route shares:
    # 10^-6 * den on its numerator.
    def slipped(r, alpha, beta, gamma):
        lam, d0, den = true(r, alpha, beta, gamma)
        return lam + Fraction(den, 10 ** 6), d0, den
    return slipped


def _gap_plus_one(true):
    def slipped(g, lam, d0):
        ratio, bound, gap = true(g, lam, d0)
        return ratio, bound, gap + 1
    return slipped


def _x0_slip(true):
    # 10^-6 on the first unknown, lambda, of every solved system.
    def slipped(*system):
        x = true(*system)
        return [x[0] + Fraction(1, 10 ** 6), *x[1:]]
    return slipped


def _xi_slip(true):
    # 10^-6 on xi, through its one statement: the numerator gains 10^-6 * e.
    def slipped(g, r, d):
        num, e = true(g, r, d)
        return num + Fraction(1, 10 ** 6) * e, e
    return slipped


def _doubled_terms(true):
    def slipped(combo, floor):
        out = true(combo, floor)
        out.terms = {key: 2 * c for key, c in out.terms.items()}
        return out
    return slipped


def _plus(extra):
    """A wrap that adds extra(*args) to what the true function returns."""
    return lambda true: lambda *args: true(*args) + extra(*args)


_TINY = Fraction(1, 10 ** 6)


def _per_n_slip(field):
    # 10^-6 on one coefficient of a closed push-forward per cover degree:
    # 10^-6 * den on its numerator.
    def wrap(true):
        def slipped(g, r, d):
            c = true(g, r, d)
            setattr(c, field, getattr(c, field) + _TINY * c.den)
            return c
        return slipped
    return wrap


def _sheets_slip(true):
    return lambda g, r, d: tuple(c + _TINY for c in true(g, r, d))


def _elliptic_delta1_slip(true):
    # 10^-6 on every delta_1 weight of the restriction: 10^-6 * (g-1)(g-2)
    # on the numerator over the rows' one denominator (g-1)(g-2), in the
    # column that mg1_columns gives delta_1.
    def slipped(g):
        rows = true(g)
        column = picard.mg1_columns(g).index(picard.delta(1))
        for row in rows:
            row[column] += _TINY * (g - 1) * (g - 2)
        return rows
    return slipped


def _elliptic_delta1_int_slip(true):
    # The same slipped rows times 10^6, as ints, since the elimination takes
    # int coefficients; the elliptic-tail equations are homogeneous, so the
    # scale leaves their solutions as they are.
    slipped = _elliptic_delta1_slip(true)
    return lambda g: [{column: int(w * 10 ** 6) for column, w in row.items()}
                      for row in slipped(g)]


def _marked_psi_slip(true):
    # One more on the psi weight of every marked-point row, an int as the
    # elimination takes, in the column that mg1_columns gives psi.
    def slipped(g, h):
        row = true(g, h)
        column = picard.mg1_columns(g).index(picard.PSI)
        return {**row, column: row[column] + 1}
    return slipped


def _m21_a_slip(true):
    def slipped(g, r, d, label):
        a, b = true(g, r, d, label)
        return a + _TINY, b
    return slipped


SLIPS = {
    # The two formulas of `slope` that the closed, symbolic and family routes share.
    "class-formula": ([(slope, "quadric_per_n", _class_slip)], {
        "m-family-gap": "pointwise mismatch within m <= 3",
        "genus21-slope": "ratio 491800019/75400000 vs bound 72/11",
        "genus10-slope": "ratio 7000001/1000000"}),
    "bound-12/(g+2)": ([(slope, "ratio_bound_gap",
                         lambda true: lambda g, lam, d0: true(g + 1, lam, d0))], {
        "m-family-gap": "pointwise mismatch within m <= 3",
        "genus21-slope": "ratio 2459/377 vs bound 150/23",
        "genus10-slope": "ratio 7"}),
    # Reports and the printed gap agree, but the gap at m = 1 is no longer 0.
    "gap-plus-one": ([(slope, "ratio_bound_gap", _gap_plus_one),
                      (slope, "family_gap_function", _plus(lambda: 1))],
                     {"m-family-gap": "m=1 gap 1 != 0"}),
    "symbolic-gap": ([(slope, "family_gap_symbolic", _plus(lambda: 1))],
                     {"m-family-gap": "symbolic rational-function identity fails"}),
    "closed-schubert": ([(schubert, "special_power_integral", _plus(lambda *args: 1))],
                        {"schubert-oracle": "shape (r=0, d=0), k=0, b=[0]: closed 2 != pieri 1"}),
    "pencil-count": ([(invariants, "castelnuovo_count", _plus(lambda g, r, d: r == 1))],
                     {"count-vs-degree": "(2,1,2): count 2 != integral 1"}),
    # xi's numerator and denominator, read by invariants and by families.
    "xi": ([(invariants, "xi_parts", _xi_slip), (families, "xi_parts", _xi_slip)], {
        "weierstrass-dual": "(4,3,6) gamma: schubert -1 != closed -9000001/9000000",
        "genus2-reconstruction":
            "(4,3,6) gamma: DivisorClass(m21, 1*lambda + -3*psi + 1*delta_1)",
        "m-family-gap": "pointwise mismatch within m <= 3",
        "genus21-slope": "ratio 7377000072/1131000011 vs bound 72/11",
        "genus10-slope": "ratio 1008000078/144000011"}),
    "large-pieri": ([(schubert, "zeta_power_integral_pieri", _plus(lambda shape, k, b: k > 30))],
                    {"count-m-family": "(36,8,40): count 177295473274920, "
                                      "zeta^36 integral 177295473274921"}),
    # The two exact kernels: the elimination and one Pieri product.
    "solve-x0": ([(linalg, "solve_unique", _x0_slip)], {
        "assembly-vs-closed-form": (
            "(5,4,8) alpha: assembled DivisorClass(mg1(5), 12000001/1000000*lambda",
            "no family equation fails"),
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled (58799999/8400000, -1)"}),
    "pieri-doubled": ([(schubert, "pieri_multiply", _doubled_terms)], {
        "schubert-oracle": "shape (r=1, d=2), k=2, b=[0, 0]: closed 1 != pieri 4",
        "count-vs-degree": "(2,1,2): count 1 != integral 4",
        "count-m-family": "(21,6,24): count 1385670, zeta^21 integral 2905960611840"}),
    # The pairing of the two Pieri halves, with a dual that complements the
    # entries of an index but does not reverse them.
    "pieri-dual-unreversed": ([(schubert.IndexCode, "dual",
                                lambda true: lambda code, key: code.point - key)], {
        "schubert-oracle": "shape (r=1, d=2), k=2, b=[0, 0]: closed 1 != pieri 0",
        "count-vs-degree": "(2,1,2): count 1 != integral 0",
        "count-m-family": "(21,6,24): count 1385670, zeta^21 integral 0"}),
    "genus2-product": ([(verify, "m21_push_product",
                         lambda true: lambda x, y: DivisorClass.zero(PicSpace.m21()))],
                       {"genus2-engine": "alpha DivisorClass(m21, 0), beta DivisorClass(m21, 0)"}),
    # The universal-curve engine: its product table, and the line bundle that
    # both rows square.  The line bundle has fiber degree 0, so a psi slip of it
    # moves only the mixed product, that is beta.
    "pair-push-omega-omega": ([(families._PAIR_PUSH, ("omega", "omega"),
                                lambda image: {**image, picard.LAMBDA: 12 + _TINY})], {
        "genus2-engine": "alpha DivisorClass(m21, 12000001/1000000*lambda + -8*psi + "
                         "-1*delta_0), beta DivisorClass(m21, 12000001/1000000*lambda",
        "genus2-reconstruction": "(4,3,6) alpha: DivisorClass(m21, 2000001/1000000*lambda "
                                 "+ -8*psi + 2*delta_1) != DivisorClass(m21, 2*lambda"}),
    "line-bundle-psi": ([(module, "genus2_line_bundle_class", _plus(
        lambda: DivisorClass(PicSpace.c21(), {picard.PSI: _TINY})))
                         for module in (families, verify)], {
        "genus2-engine": "alpha DivisorClass(m21, 12*lambda + -8*psi + -1*delta_0), "
                         "beta DivisorClass(m21, 12*lambda + -7999997/1000000*psi",
        "genus2-reconstruction": "(4,3,6) beta: DivisorClass(m21, 2*lambda + "
                                 "-7999997/1000000*psi + 2*delta_1) != DivisorClass(m21"}),
    "closed-gamma-psi": ([(pushforward._CLOSED_FORMS, ClassLabel.GAMMA, _plus(
        lambda g, r, d: DivisorClass(PicSpace.mg1(g), {"psi": 1})))], {
        "assembly-vs-closed-form": (
            "(5,4,8) gamma: assembled DivisorClass(mg1(5), 1*lambda + -5*psi",
            "marked-point degree mismatch")}),
    "pullback-i": ([(picard, "pullback_i", _plus(
        lambda g, D: DivisorClass(PicSpace.m0g(g), {picard.epsilon(2): 1})))],
                   {"delta-pullback-identity": "g=5: DivisorClass(m0g(5), 1/2*epsilon_2"}),
    "marked-gamma": ([(verify, "marked_per_n", _plus(lambda *args: 1))],
                     {"marked-gamma-identity": "(2,1,2), h=1: degrees disagree"}),
    # The shared primitives below are patched in every module that binds them.
    "special-power-integral": ([(module, "special_power_integral",
                                 lambda true: lambda *args: true(*args) * (1 + _TINY))
                                for module in (schubert, families)], {
        "schubert-oracle": "shape (r=0, d=0), k=0, b=[0]: closed 1000001/1000000 != pieri 1",
        "weierstrass-dual": "(4,3,6) gamma: schubert -1000001/1000000 != closed -1",
        "genus2-reconstruction": "(4,3,6) gamma: DivisorClass(m21, 1000001/1000000*lambda"}),
    "castelnuovo-count": ([(module, "castelnuovo_count", _plus(lambda g, r, d: 1))
                           for module in (invariants, families, pushforward)], {
        "count-vs-degree": "(2,1,2): count 2 != integral 1",
        "weierstrass-dual": "(4,3,6) gamma: schubert -1 != closed -2",
        "genus2-reconstruction": "(4,3,6) gamma: DivisorClass(m21, 1*lambda + -3*psi",
        "count-m-family": "(21,6,24): count 1385671, zeta^21 integral 1385670"}),
    "marked-per-n-h1": ([(module, "marked_per_n", _plus(lambda g, r, d, h, label: h == 1))
                         for module in (families, pushforward, verify)], {
        "assembly-vs-closed-form": (
            "ConsistencyError: family data contradicts for (5,4,8) alpha",
            "marked-point degree mismatch"),
        "marked-gamma-identity": "(2,1,2), h=1: degrees disagree",
        "slope-vs-assembly": "ConsistencyError: family data contradicts for (10,4,12) alpha"}),
    "sheet-counts": ([(families, "sheet_counts", _sheets_slip)], {
        "genus2-reconstruction": "(4,3,6) alpha: DivisorClass(m21, 1000001/500000*lambda"}),
    "vanishing-sum": ([(invariants, "vanishing_sum", _plus(lambda h, r, d: 1))],
                      {"marked-gamma-identity": "(2,1,2), h=1: degrees disagree"}),
    "gamma-lambda": ([(module, "gamma_per_n", _per_n_slip("lam"))
                      for module in (invariants, pushforward, slope)], {
        "assembly-vs-closed-form": (
            "(5,4,8) gamma: assembled DivisorClass(mg1(5), 1*lambda",
            "genus-2 restriction mismatch"),
        "m-family-gap": "pointwise mismatch within m <= 3",
        "genus21-slope": "ratio 61474981/9425000 vs bound 72/11",
        "genus10-slope": "ratio 3499997/500000",
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled (7, -1), "
                             "closed (3499997/500000, -1)"}),
    "alpha-delta0": ([(module, "alpha_per_n", _per_n_slip("delta0"))
                      for module in (invariants, pushforward, slope)], {
        "assembly-vs-closed-form": (
            "(5,4,8) alpha: assembled DivisorClass(mg1(5), 12*lambda",
            "genus-2 restriction mismatch"),
        "m-family-gap": "pointwise mismatch within m <= 3",
        "genus21-slope": "ratio 245900000/37699981 vs bound 72/11",
        "genus10-slope": "ratio 3500000/499999",
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled (7, -1), "
                             "closed (7, -499999/500000)"}),
    "elliptic-tail-delta1": ([(picard, "elliptic_tail_rows", _elliptic_delta1_slip),
                              (pushforward, "elliptic_tail_rows", _elliptic_delta1_int_slip)], {
        "assembly-vs-closed-form": (
            "(5,4,8) alpha: assembled DivisorClass(mg1(5), 17999748/1499999*lambda",
            "elliptic-tail restriction nonzero"),
        "delta-pullback-identity": "g=5: DivisorClass(m0g(5), -1499999/1000000*epsilon_2",
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled "
                             "(112000207/15999991, -16000018/15999991)"}),
    # The one statement of the marked-point row, read by pullback_k and by
    # the assembly.  slope-vs-assembly does not see it at g_max 5: on the
    # m-family, 2*alpha - beta - (r+2)*gamma has psi coefficient 0 and
    # degree 0 on every marked-point family, so it solves the slipped
    # system too.
    "marked-point-row": ([(module, "marked_point_row", _marked_psi_slip)
                          for module in (picard, pushforward)], {
        "assembly-vs-closed-form": (
            "(5,4,8) alpha: assembled DivisorClass(mg1(5), 20/3*lambda + -64/5*psi",
            "marked-point degree mismatch")}),
    "genus2-reduction": ([(picard.GENUS2_REDUCTION, picard.LAMBDA,
                           lambda row: {**row, picard.delta(0): 11})], {
        "genus2-reconstruction": "(4,3,6) alpha: DivisorClass(m21, 1*lambda + -8*psi",
        "assembly-vs-closed-form": (
            "(5,4,8) alpha: assembled DivisorClass(mg1(5), 13*lambda",
            "genus-2 restriction mismatch"),
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled (8, -1), closed (7, -1)"}),
    # Both sides of weierstrass-dual and of genus2-reconstruction read W, so
    # neither row sees a slip of it; only the assembly does.
    "weierstrass-class-psi": ([(families._W, picard.PSI, lambda w: w + _TINY)], {
        "assembly-vs-closed-form": (
            "(5,4,8) gamma: assembled DivisorClass(mg1(5), 299999/300000*lambda",
            "genus-2 restriction mismatch"),
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled "
                             "(1400003/200000, -2000003/2000000)"}),
    "m21-per-n-a": ([(module, "m21_per_n", _m21_a_slip) for module in (families, pushforward)], {
        "weierstrass-dual": "(4,3,6) alpha: schubert 0 != closed 1/1000000",
        "genus2-reconstruction": "(4,3,6) alpha: DivisorClass(m21, 2*lambda + -8*psi",
        "assembly-vs-closed-form": (
            "(5,4,8) alpha: assembled DivisorClass(mg1(5), 3000001/250000*lambda",
            "genus-2 restriction mismatch"),
        "slope-vs-assembly": "(10,4,12): (lambda, delta_0) assembled "
                             "(22399961/3200000, -6399989/6400000)"}),
}


def _apply(monkeypatch, patches):
    for target, name, wrap in patches:
        if isinstance(target, dict):
            monkeypatch.setitem(target, name, wrap(target[name]))
        else:
            monkeypatch.setattr(target, name, wrap(getattr(target, name)))


@pytest.mark.parametrize("patches, failed", SLIPS.values(), ids=SLIPS.keys())
def test_a_slip_fails_only_the_rows_that_read_it(monkeypatch, patches, failed):
    # A failed assembly-vs-closed-form row is given as (prefix, the words that
    # end its detail: the family the closed form breaks, or that none does).
    _apply(monkeypatch, patches)
    results = verify.run_checks(5, 3)
    assert len(results) == len(verify.ROWS)
    got = {rs.name: rs.detail for rs in results if not rs.passed}
    assert set(got) == set(failed)
    for name, expected in failed.items():
        prefix, words = (expected, "") if isinstance(expected, str) else expected
        assert got[name].startswith(prefix) and got[name].endswith(words), got[name]


def _closed_gamma_plus(symbol):
    return [(pushforward._CLOSED_FORMS, ClassLabel.GAMMA,
             _plus(lambda g, r, d: DivisorClass(PicSpace.mg1(g), {symbol: 1})))]


@pytest.mark.parametrize("patches, prefix, words", [
    # delta_2 enters the first elliptic-tail row (and a marked-point row),
    # psi only the marked-point rows, delta_0 only the genus-2 rows.
    (_closed_gamma_plus("delta_2"), "(5,4,8) gamma: assembled ",
     "elliptic-tail restriction nonzero"),
    (_closed_gamma_plus("psi"), "(5,4,8) gamma: assembled ", "marked-point degree mismatch"),
    (_closed_gamma_plus("delta_0"), "(5,4,8) gamma: assembled ", "genus-2 restriction mismatch"),
    # The closed form solves every family equation, so the solver slipped.
    ([(linalg, "solve_unique", _x0_slip)], "(5,4,8) alpha: assembled ",
     "no family equation fails"),
    (SLIPS["marked-per-n-h1"][0], "ConsistencyError: family data contradicts for (5,4,8) alpha: ",
     "marked-point degree mismatch"),
], ids=["delta_2", "psi", "delta_0", "solver", "contradiction"])
def test_a_failed_assembly_names_the_family_the_closed_form_breaks(monkeypatch, patches,
                                                                    prefix, words):
    _apply(monkeypatch, patches)
    passed, detail = verify.check_assembly(5)
    assert not passed
    assert detail.startswith(prefix) and detail.endswith(f"; {words}"), detail
