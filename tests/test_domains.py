"""Domains of the guarded (g, r, d) entry points.

The accepted sets below are pinned from the guards as they stood before the
domains were declared once in ``invariants``: each entry point must accept
exactly these triples of the grid and refuse every other one with a
PreconditionError, never with another exception.
"""

import pytest

from grdcalc.errors import PreconditionError
from grdcalc.families import (ClassLabel, push_m21, push_marked, push_mogb,
                              reconstruct_push_m21, sheet_counts, weierstrass_alpha,
                              weierstrass_gamma)
from grdcalc.invariants import castelnuovo_count
from grdcalc.pushforward import alpha, beta, combination, gamma, solve_from_families
from grdcalc.slope import slope_report

GRID = [(g, r, d) for g in range(-2, 9) for r in range(-1, 5) for d in range(-1, 12)]

RHO_ZERO = {(1, 0, 0), (2, 0, 0), (2, 1, 2), (3, 0, 0), (3, 2, 4), (4, 0, 0), (4, 1, 3),
            (4, 3, 6), (5, 0, 0), (5, 4, 8), (6, 0, 0), (6, 1, 4), (6, 2, 6), (7, 0, 0),
            (8, 0, 0), (8, 1, 5), (8, 3, 9)}
FROM_GENUS_2 = RHO_ZERO - {(1, 0, 0)}
FROM_GENUS_3 = FROM_GENUS_2 - {(2, 0, 0), (2, 1, 2)}
FROM_GENUS_4 = FROM_GENUS_3 - {(3, 0, 0), (3, 2, 4)}
SLOPED = {(3, 2, 4), (4, 1, 3), (4, 3, 6), (5, 4, 8), (6, 1, 4), (6, 2, 6), (8, 1, 5), (8, 3, 9)}
WEIERSTRASS = {(4, 3, 6), (5, 4, 8), (6, 1, 4), (6, 2, 6), (8, 1, 5), (8, 3, 9)}
ASSEMBLED = {(5, 0, 0), (5, 4, 8), (6, 0, 0), (6, 1, 4), (6, 2, 6), (7, 0, 0), (8, 0, 0),
             (8, 1, 5), (8, 3, 9)}

ENTRY_POINTS = {
    "castelnuovo_count": (castelnuovo_count, RHO_ZERO),
    "alpha": (alpha, FROM_GENUS_3),
    "beta": (beta, FROM_GENUS_2),
    "gamma": (gamma, FROM_GENUS_3),
    "combination": (lambda g, r, d: combination(g, r, d, 0, 0, 0), FROM_GENUS_2),
    "slope_report": (slope_report, SLOPED),
    "sheet_counts": (sheet_counts, FROM_GENUS_2),
    "push_m21": (lambda g, r, d: push_m21(g, r, d, ClassLabel.GAMMA), FROM_GENUS_2),
    "push_marked": (lambda g, r, d: push_marked(g, r, d, 1, ClassLabel.ALPHA), FROM_GENUS_2),
    "push_mogb": (lambda g, r, d: push_mogb(g, r, d, ClassLabel.BETA), FROM_GENUS_4),
    "reconstruct_push_m21-beta":
        (lambda g, r, d: reconstruct_push_m21(g, r, d, ClassLabel.BETA), FROM_GENUS_2),
    "reconstruct_push_m21-alpha":
        (lambda g, r, d: reconstruct_push_m21(g, r, d, ClassLabel.ALPHA), WEIERSTRASS),
    "weierstrass_alpha": (weierstrass_alpha, WEIERSTRASS),
    "weierstrass_gamma": (weierstrass_gamma, WEIERSTRASS),
    "solve_from_families":
        (lambda g, r, d: solve_from_families(g, r, d, ClassLabel.GAMMA), ASSEMBLED),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_accepts_exactly_its_pinned_domain(name):
    fn, expected = ENTRY_POINTS[name]
    accepted = set()
    for triple in GRID:
        try:
            fn(*triple)
        except PreconditionError:
            continue
        accepted.add(triple)
    assert accepted == expected


def test_guards_name_the_first_bound_that_fails():
    # The first four triples fail two bounds each; the order base, rho, r, g,
    # width decides which one is named.  At genus 1 the genus-2-tail family
    # divides by 2(g-1), so its guard must refuse before the arithmetic.
    cases = [
        (castelnuovo_count, (0, 1, 5), "need g >= 1 and r >= 0, got g=0, r=1"),
        (slope_report, (3, 0, 1), "rho(g=3, r=0, d=1) = 1, need 0"),
        (slope_report, (1, 0, 0), "need r >= 1, got r=0"),
        (weierstrass_alpha, (2, 1, 2), "need g >= 3, got g=2"),
        (weierstrass_gamma, (4, 1, 3), "need box width d-r >= 3, got 2"),
        (sheet_counts, (1, 0, 0), "genus-2-tail family: need g >= 2, got g=1"),
        (lambda g, r, d: push_mogb(g, r, d, ClassLabel.ALPHA), (3, 2, 4),
         "elliptic-tail family: need g >= 4, got g=3"),
    ]
    for label in ClassLabel:
        cases.append((lambda g, r, d, label=label: push_m21(g, r, d, label),
                      (1, 0, 0), "genus-2-tail family: need g >= 2"))
        cases.append((lambda g, r, d, label=label: reconstruct_push_m21(g, r, d, label),
                      (1, 0, 0), "genus-2-tail family: need g >= 2"))
    for fn, triple, cause in cases:
        with pytest.raises(PreconditionError) as info:
            fn(*triple)
        assert cause in str(info.value), (triple, str(info.value))
