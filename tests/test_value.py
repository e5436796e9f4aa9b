"""Equality, hash and repr of the value classes, and the checks their constructors make."""

from fractions import Fraction

import pytest

from grdcalc.errors import PreconditionError
from grdcalc.invariants import GrdParams
from grdcalc.picard import LAMBDA, DivisorClass, PicSpace
from grdcalc.schubert import GrassShape, check_partition
from grdcalc.verify import CheckResult


@pytest.mark.parametrize("a, b, other, fields", [
    (GrdParams(21, 6, 24), GrdParams(21, 6, 24), GrdParams(10, 4, 12), (21, 6, 24)),
    (GrassShape(1, 3), GrassShape(1, 3), GrassShape(1, 4), (1, 3)),
    (PicSpace.mg1(5), PicSpace.mg1(5), PicSpace.m0g(5), ("mg1", 5)),
], ids=["GrdParams", "GrassShape", "PicSpace"])
def test_immutable_values_are_equal_by_fields_and_hash_alike(a, b, other, fields):
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    assert a != fields


def test_mutable_values_are_equal_by_fields_and_unhashable():
    m21 = PicSpace.m21()
    assert DivisorClass(m21, {LAMBDA: 1}) == DivisorClass(m21, {LAMBDA: Fraction(1)})
    assert DivisorClass(m21, {LAMBDA: 1}) != DivisorClass(m21, {LAMBDA: 2})
    assert DivisorClass(m21, {}) != DivisorClass.zero(PicSpace.mg1(2))
    assert CheckResult("c", True, "ok") == CheckResult("c", True, "ok")
    assert CheckResult("c", True, "ok") != CheckResult("c", False, "ok")
    for value in (DivisorClass.zero(m21), CheckResult("c", True, "ok")):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_reprs_name_the_fields():
    assert repr(GrassShape(1, 3)) == "GrassShape(r=1, d=3)"
    assert repr(GrdParams(21, 6, 24)) == "GrdParams(g=21, r=6, d=24)"
    with pytest.raises(PreconditionError,
                       match=r"^index needs 2 entries for GrassShape\(r=1, d=3\), got 1$"):
        check_partition(GrassShape(1, 3), (0,))
