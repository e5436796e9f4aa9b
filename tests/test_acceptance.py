"""Acceptance suite: one test per release criterion, all exact arithmetic.

Each test prints a PASS line with its wall time (visible with ``pytest -s``),
and asserts both the exact expected values and the stated time budget.
Criteria:

1. genus-21 slope counterexample through the CLI (< 1 s)
2. genus-10 cross-check through the CLI (< 1 s)
3. quadratic-family gap identity, m = 1..15 (< 10 s)
4. family assembly reproduces every closed form, 5 <= g <= 12 (< 60 s)
5. Schubert closed form vs. Pieri expansion, exhaustively, plus the count
   identity up to g = 12 and the genus-21 sweep (< 5 min)
6. universal genus-2 curve engine and its reconstruction identity (< 5 s)
7. boundary intersection matrix and pull-back identity checks (< 5 s)
8. randomized exact property suite, >= 1000 cases (< 30 s)
"""

import json
import random
import time
from fractions import Fraction

from grdcalc import invariants, pushforward, schubert, slope, verify
from grdcalc.cli import main
from grdcalc.families import (ClassLabel, genus2_dualizing_class,
                              genus2_line_bundle_class, m21_push_product,
                              push_m21, reconstruct_push_m21)
from grdcalc.linalg import solve_unique
from grdcalc.picard import (GENUS2_RELATION,LAMBDA, PSI, DivisorClass,
                            PicSpace, delta, epsilon_intersection_matrix,
                            pullback_i, pullback_j, pullback_k, reduce_m21)
from conftest import rand_class, rand_fraction


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s, budget {self.seconds:g}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        else:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


def _run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_genus21_counterexample(capsys):
    with _Budget("criterion-1 genus-21 counterexample", 1.0):
        payload = _run_cli_json(capsys, "slope", "--g", "21", "--r", "6", "--d", "24")
        assert Fraction(payload["lambda"]) / Fraction(payload["delta0"]) \
            == Fraction(-2459, 377)
        assert Fraction(payload["ratio"]) == Fraction(2459, 377)
        assert Fraction(payload["ratio"]) < Fraction(72, 11)
        assert Fraction(payload["bound"]) == Fraction(72, 11)
        assert payload["violates"] is True


def test_criterion_2_genus10_cross_check(capsys):
    with _Budget("criterion-2 genus-10 cross-check", 1.0):
        payload = _run_cli_json(capsys, "slope", "--m", "2")
        assert Fraction(payload["ratio"]) == 7
        assert payload["violates"] is True


def test_criterion_3_family_gap_identity():
    with _Budget("criterion-3 family gap identity", 10.0):
        assert slope.m_family_gap_identity(slope.m_family_reports(15))
        assert slope.m_family_report(1).gap == 0
        assert slope.symbolic_gap_identity()


def test_criterion_4_closed_form_assembly():
    with _Budget("criterion-4 closed-form assembly", 60.0):
        triples = [t for t in invariants.rho_zero_triples(12)
                   if t.g >= 5 and t.d - t.r >= 3]
        assert len(triples) >= 15
        for t in triples:
            for label in ClassLabel:
                solution = pushforward.solve_from_families(t.g, t.r, t.d, label)
                closed = pushforward.closed_form(t.g, t.r, t.d, label)
                assert solution.as_divisor_class(t.g) == closed, (t, label)


def test_criterion_5_schubert_oracle():
    with _Budget("criterion-5 schubert oracle", 300.0):
        passed, detail = verify.check_schubert_oracle()
        assert passed, detail
        for t in invariants.rho_zero_triples(12):
            shape = schubert.GrassShape(t.r, t.d)
            n = invariants.castelnuovo_count(t.g, t.r, t.d)
            assert schubert.zeta_power_integral_pieri(shape, t.g, (0,) * (t.r + 1)) == n
        big = schubert.GrassShape(6, 24)
        via_pieri = schubert.zeta_power_integral_pieri(big, 21, (0,) * 7)
        assert via_pieri == invariants.castelnuovo_count(21, 6, 24) == 1385670


def test_criterion_6_genus2_engine():
    with _Budget("criterion-6 genus-2 engine", 5.0):
        line = genus2_line_bundle_class()
        expected = DivisorClass(PicSpace.m21(), {LAMBDA: 12, delta(0): -1, PSI: -8})
        assert m21_push_product(line, line) == expected
        assert m21_push_product(line, genus2_dualizing_class()) == expected
        for t in invariants.rho_zero_triples(12):
            if t.g < 3 or t.d - t.r < 3:
                continue
            for label in ClassLabel:
                assert reconstruct_push_m21(t.g, t.r, t.d, label) \
                    == push_m21(t.g, t.r, t.d, label), (t, label)


def test_criterion_7_picard_checks():
    with _Budget("criterion-7 picard checks", 5.0):
        for g in range(6, 31):
            # A unique solution of M x = 0 means M is nonsingular.
            assert solve_unique(epsilon_intersection_matrix(g), [0] * (g - 3)) \
                == [0] * (g - 3), g
        for g in range(5, 31):
            space = PicSpace.mg1(g)
            D = DivisorClass(space, {delta(1): 1, delta(g - 1): 1})
            expected = DivisorClass(PicSpace.m0g(g), {
                f"epsilon_{i}": Fraction(i * (i - g), g - 1) for i in range(2, g - 1)})
            assert pullback_i(g, D) == expected, g


def test_criterion_8_property_suite():
    with _Budget("criterion-8 property suite", 30.0):
        rng = random.Random("grdcalc:acceptance-properties")
        cases = 0

        # Pull-back linearity on random classes.
        for _ in range(300):
            g = rng.randint(5, 10)
            space = PicSpace.mg1(g)
            a, b = rand_fraction(rng), rand_fraction(rng)
            D, E = rand_class(rng, space), rand_class(rng, space)
            combo = D.scale(a) + E.scale(b)
            assert pullback_i(g, combo) == pullback_i(g, D).scale(a) + pullback_i(g, E).scale(b)
            assert pullback_j(g, combo) == pullback_j(g, D).scale(a) + pullback_j(g, E).scale(b)
            h = rng.randint(1, g - 1)
            assert pullback_k(g, h, combo) == a * pullback_k(g, h, D) + b * pullback_k(g, h, E)
            cases += 1

        # Genus-2 reduction: idempotent and constant on relation orbits.
        m21 = PicSpace.m21()
        relation = DivisorClass(m21, dict(GENUS2_RELATION))
        for _ in range(250):
            D = rand_class(rng, m21, density=0.8)
            reduced = reduce_m21(D)
            assert reduce_m21(reduced) == reduced
            assert reduce_m21(D + relation.scale(rand_fraction(rng))) == reduced
            cases += 1

        # Push-product symmetry and bilinearity.
        for _ in range(250):
            x, y, z = (rand_class(rng, PicSpace.c21()) for _ in range(3))
            assert m21_push_product(x, y) == m21_push_product(y, x)
            a = rand_fraction(rng)
            assert m21_push_product(x.scale(a) + y, z) \
                == m21_push_product(x, z).scale(a) + m21_push_product(y, z)
            cases += 1

        # Pieri expansions stay in the box with positive integer coefficients.
        for _ in range(200):
            r = rng.randint(1, 4)
            width = rng.randint(1, 5)
            shape = schubert.GrassShape(r, r + width)
            b = tuple(sorted(rng.randint(0, width) for _ in range(r + 1)))
            combo = schubert.SchubertCombo(shape, {b: 1})
            combo = schubert.pieri_multiply(combo, rng.randint(0, r + 1))
            for idx, coeff in combo.terms.items():
                schubert.check_partition(shape, idx)
                assert isinstance(coeff, int) and coeff > 0
            cases += 1

        assert cases >= 1000, cases
        print(f"criterion-8 ran {cases} randomized exact cases")
