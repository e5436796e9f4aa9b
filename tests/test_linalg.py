from fractions import Fraction

import pytest

from grdcalc.linalg import InconsistentSystemError, RankDeficientError, solve_unique


def test_over_determined_consistent_system_is_solved():
    assert solve_unique([[1, 0], [0, 1], [1, 1]], [1, 2, 3]) == [Fraction(1), Fraction(2)]


def test_inconsistent_system_names_its_witness_equation():
    # Equation 1 contradicts equation 0; equation 2 is equation 0 doubled.
    with pytest.raises(InconsistentSystemError) as info:
        solve_unique([[1], [1], [2]], [1, 2, 2])
    assert info.value.witness == 1
    assert info.value.residue == 1
    assert str(info.value) == "equation 1 reduces to 0 = 1"


def test_rank_deficient_system_lists_free_columns():
    with pytest.raises(RankDeficientError) as info:
        solve_unique([[1, 1, 0], [2, 2, 0]], [1, 2])
    assert info.value.free_columns == [1, 2]
    assert str(info.value) == "free columns [1, 2]"
