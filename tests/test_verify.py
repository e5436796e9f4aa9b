import dataclasses
from fractions import Fraction

from grdcalc import families, slope, verify
from grdcalc.errors import ConsistencyError


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
