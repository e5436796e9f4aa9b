import dataclasses
from fractions import Fraction

import pytest

from grdcalc import families, picard, pushforward, slope, verify
from grdcalc.errors import ConsistencyError
from grdcalc.families import ClassLabel
from grdcalc.picard import DivisorClass, PicSpace


def test_a_raising_check_fails_alone(monkeypatch):
    def broken(g, r, d):
        raise ConsistencyError(f"injected at ({g},{r},{d})")

    monkeypatch.setattr(families, "weierstrass_alpha", broken)
    results = verify.run_checks(5, 3)
    assert len(results) == 15
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
        return dataclasses.replace(c, delta0=c.delta0 + Fraction(1, 10 ** 6))

    monkeypatch.setattr(slope, "gamma_per_n", off)
    results = {rs.name: rs for rs in verify.run_checks(5, 3)}
    assert not results["slope-vs-assembly"].passed
    assert results["slope-vs-assembly"].detail.startswith("(10,4,12): (lambda, delta_0) assembled")
    assert results["assembly-vs-closed-form"].passed


@pytest.mark.parametrize("symbol, detail", [
    ("delta_2", "elliptic-tail restriction nonzero"),
    ("psi", "marked-point degree mismatch"),
    ("delta_0", "genus-2 restriction mismatch"),
])
def test_family_restrictions_name_the_family_a_slip_breaks(monkeypatch, symbol, detail):
    # delta_2 enters the first elliptic-tail row (and a marked-point row),
    # psi only the marked-point rows, delta_0 only the genus-2 rows.
    true_gamma = pushforward.gamma

    def slipped(g, r, d):
        return true_gamma(g, r, d) + DivisorClass.basis_vector(PicSpace.mg1(g), symbol)

    monkeypatch.setitem(pushforward._CLOSED_FORMS, ClassLabel.GAMMA, slipped)
    result = verify.check_family_restrictions(5)
    assert (result.passed, result.detail) == (False, f"(5,4,8) gamma: {detail}")


def test_a_singular_boundary_matrix_fails_epsilon_nonsingular(monkeypatch):
    true_matrix = picard.epsilon_intersection_matrix

    def singular_at_9(g):
        rows = true_matrix(g)
        if g == 9:
            rows[2] = [2 * x for x in rows[1]]
        return rows

    monkeypatch.setattr(picard, "epsilon_intersection_matrix", singular_at_9)
    result = verify.check_epsilon_matrix()
    assert (result.passed, result.detail) == (False, "g=9: determinant 0")
