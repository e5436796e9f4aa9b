import importlib.util
import json
from pathlib import Path

import pytest

from grdcalc.cli import main
from grdcalc.errors import PreconditionError
from grdcalc.invariants import (GrdParams, castelnuovo_count, rho,
                                rho_zero_triples, vanishing_sum, xi)
from grdcalc.schubert import GrassShape, special_power_integral

# Fixed by the factorial formula 1! 2! 6! 21! / (3! 4! ... 9!); the Pieri
# route re-derives it in the acceptance suite.
N_GENUS_21 = 1385670


def test_rho_values():
    assert rho(21, 6, 24) == 0
    assert rho(10, 4, 12) == 0
    assert rho(3, 1, 2) == -1


def test_castelnuovo_small_counts():
    assert castelnuovo_count(4, 1, 3) == 2
    assert castelnuovo_count(6, 2, 6) == 5
    assert castelnuovo_count(21, 6, 24) == N_GENUS_21


def test_castelnuovo_count_is_the_schubert_degree():
    # The same classical quotient, zeta^g on the Grassmannian, in independent code.
    for t in rho_zero_triples(120):
        assert castelnuovo_count(t.g, t.r, t.d) \
            == special_power_integral(GrassShape(t.r, t.d), t.g, (0,) * (t.r + 1)), t


def _benchmark_reference():
    # perfbench/reference.py restates the count without importing grdcalc.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_castelnuovo_count_is_an_int():
    reference = _benchmark_reference()
    for g, r, d in reference.rho_zero_triples(120):
        n = castelnuovo_count(g, r, d)
        assert type(n) is int and n == reference.castelnuovo(g, r, d), (g, r, d)
    assert type(castelnuovo_count(7, 0, 0)) is int


def test_canonical_series_count_is_quick(capsys):
    # The canonical series: the count is 1, and its cost must not grow with r*g.
    code = main(["invariants", "--g", "1000", "--r", "999", "--d", "1998"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["N"] == "1"


def test_castelnuovo_requires_rho_zero():
    with pytest.raises(PreconditionError):
        castelnuovo_count(3, 1, 2)


def test_castelnuovo_requires_positive_genus():
    # rho(0, n, n) = 0, so only the genus check can refuse these.
    for n in range(1, 4):
        with pytest.raises(PreconditionError, match=r"\bg\b"):
            castelnuovo_count(0, n, n)
    for g in range(1, 6):
        assert castelnuovo_count(g, 0, 0) == 1


def test_xi_values():
    assert xi(21, 6, 24) == 312
    assert xi(4, 1, 3) == 9
    for g, d in [(5, 3), (9, 5), (13, 20)]:
        assert xi(g, 1, d) == 3 * (g - 1)


def test_xi_zero_denominator():
    with pytest.raises(PreconditionError):
        xi(1, 0, 2)


def test_vanishing_sum_values():
    assert vanishing_sum(0, 1, 1) == 1
    # Degrees relative to d: sum (a_i - d) = -r(r+1)/2 - rh.
    for h, r, d in [(1, 1, 3), (2, 6, 24), (5, 3, 9)]:
        assert vanishing_sum(h, r, d) - (r + 1) * d == -r * (r + 1) // 2 - r * h


def test_vanishing_sum_rearranges_rho():
    # rho(h, r, d) - sum(a_i - i) = 0 is exactly the defining rearrangement.
    for h in range(0, 9):
        for r in range(0, 5):
            for d in range(1, 12):
                sum_ai_minus_i = vanishing_sum(h, r, d) - r * (r + 1) // 2
                assert rho(h, r, d) - sum_ai_minus_i == 0


def test_enumerate_small():
    triples = {(t.g, t.r, t.d) for t in rho_zero_triples(4)}
    assert (4, 1, 3) in triples
    assert (4, 3, 6) in triples
    assert (2, 1, 2) in triples


def test_enumerate_reaches_headline_triples():
    triples = {(t.g, t.r, t.d) for t in rho_zero_triples(21)}
    assert (21, 6, 24) in triples
    assert (10, 4, 12) in triples


def test_enumerate_divisibility_and_bounds():
    for t in rho_zero_triples(18):
        assert rho(t.g, t.r, t.d) == 0
        assert t.g % (t.r + 1) == 0
        assert t.r >= 1
        assert 1 <= t.d <= t.g + t.r
        assert t.g - t.d + 2 * t.r + 1 != 0


def test_counts_are_positive_integers():
    for t in rho_zero_triples(14):
        n = castelnuovo_count(t.g, t.r, t.d)
        assert n.denominator == 1
        assert n > 0


def test_quadratic_family_has_rho_zero():
    for m in range(1, 21):
        assert rho(m * (2 * m + 1), 2 * m, 2 * m * (m + 1)) == 0


def test_grd_params_validation():
    with pytest.raises(PreconditionError):
        GrdParams(0, 1, 1)
    with pytest.raises(PreconditionError):
        GrdParams(1, -1, 1)
    with pytest.raises(PreconditionError):
        GrdParams(1, 0, 1)  # rho = -1
