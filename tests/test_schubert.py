import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from grdcalc import schubert
from grdcalc.errors import PreconditionError
from grdcalc.invariants import castelnuovo_count, rho_zero_triples
from grdcalc.schubert import (GrassShape, IndexCode, SchubertCombo, check_partition,
                              iter_box_indices, pieri_multiply, special_power_integral,
                              zeta_power_integral_pieri)


def test_point_class_integrates_to_one():
    shape = GrassShape(1, 3)
    assert special_power_integral(shape, 0, (2, 2)) == 1
    tiny = GrassShape(2, 2)  # zero-dimensional
    assert special_power_integral(tiny, 0, (0, 0, 0)) == 1


def test_two_pencils_on_genus_four():
    shape = GrassShape(1, 3)
    assert special_power_integral(shape, 4, (0, 0)) == 2
    assert zeta_power_integral_pieri(shape, 4, (0, 0)) == 2
    assert castelnuovo_count(4, 1, 3) == 2


def test_invalid_partitions_rejected():
    shape = GrassShape(1, 3)
    with pytest.raises(PreconditionError):
        check_partition(shape, (2, 1))  # not increasing
    with pytest.raises(PreconditionError):
        check_partition(shape, (0, 3))  # leaves the box
    for below in [(-1, -1), (-1, 0)]:  # weakly increasing, but below the box
        with pytest.raises(PreconditionError, match="leaves the box"):
            check_partition(shape, below)
    with pytest.raises(PreconditionError):
        special_power_integral(shape, 0, (0, 0, 0))  # wrong length
    with pytest.raises(PreconditionError):
        special_power_integral(shape, -1, (0, 0))


def test_an_entry_that_is_not_an_integer_is_refused():
    # Read with int(), (0, 1.9) would be the index (0, 1), whose integral is 2.
    shape = GrassShape(1, 3)
    for fn in (special_power_integral, zeta_power_integral_pieri):
        for bad in (1.9, 1.0, "1"):
            with pytest.raises(PreconditionError, match=f"^index entry {bad!r} is not an integer$"):
                fn(shape, 3, (0, bad))


def test_pieri_single_strip():
    shape = GrassShape(1, 3)
    start = SchubertCombo(shape, {(0, 0): 1})
    assert pieri_multiply(start).by_index() == {(0, 1): 1}


def test_pieri_two_term_branch():
    shape = GrassShape(1, 3)
    start = SchubertCombo(shape, {(0, 1): 1})
    assert pieri_multiply(start).by_index() == {(1, 1): 1, (0, 2): 1}


def test_iterated_pieri_reaches_point_class():
    shape = GrassShape(1, 3)
    combo = SchubertCombo(shape, {(0, 0): 1})
    for _ in range(4):
        combo = pieri_multiply(combo)
    assert combo.by_index() == {(2, 2): 2}


def test_degree_mismatch_gives_zero():
    shape = GrassShape(1, 3)
    assert special_power_integral(shape, 1, (0, 0)) == 0
    assert zeta_power_integral_pieri(shape, 1, (0, 0)) == 0


def test_negative_factorial_argument_gives_zero():
    # Dimension count holds but the index is forced outside the box.
    shape = GrassShape(2, 4)
    assert shape.r * 1 + 4 == shape.dim
    assert special_power_integral(shape, 1, (0, 2, 2)) == 0
    assert zeta_power_integral_pieri(shape, 1, (0, 2, 2)) == 0


def test_five_series_count_both_routes():
    shape = GrassShape(2, 6)
    assert special_power_integral(shape, 6, (0, 0, 0)) == 5
    assert zeta_power_integral_pieri(shape, 6, (0, 0, 0)) == 5


def test_integral_of_wrong_degree_class_is_zero():
    # With no product, a class of the wrong degree integrates to zero and
    # the point class to one.
    shape = GrassShape(2, 6)
    assert zeta_power_integral_pieri(shape, 0, (0, 0, 0)) == 0
    assert zeta_power_integral_pieri(shape, 0, (4, 4, 4)) == 1
    assert type(zeta_power_integral_pieri(shape, 6, (0, 0, 0))) is Fraction


def test_combination_validates_indices_and_drops_zero_coefficients():
    shape = GrassShape(2, 6)
    assert SchubertCombo(shape, {(4, 4, 4): 5, (0, 1, 1): 0}).by_index() == {(4, 4, 4): 5}
    assert len(SchubertCombo(shape).terms) == 0
    with pytest.raises(PreconditionError, match="not weakly increasing"):
        SchubertCombo(shape, {(1, 0, 0): 1})


def test_pieri_output_stays_in_box_with_positive_integer_coefficients(rng):
    for _ in range(60):
        r = rng.randint(1, 4)
        width = rng.randint(1, 5)
        shape = GrassShape(r, r + width)
        b = sorted(rng.randint(0, width) for _ in range(r + 1))
        combo = SchubertCombo(shape, {tuple(b): 1})
        for _ in range(rng.randint(1, 3)):
            combo = pieri_multiply(combo)
        for idx, coeff in combo.by_index().items():
            check_partition(shape, idx)
            assert isinstance(coeff, int) and coeff > 0


def _zeta_brute_force(shape, b):
    # b + e over every e in {0,1}^rows with |e| = r, kept if it is an index
    # of the box; each kept e counts once.
    out = {}
    for grow in combinations(range(shape.rows), shape.r):
        mu = tuple(x + (i in grow) for i, x in enumerate(b))
        if list(mu) == sorted(mu) and mu[-1] <= shape.width:
            out[mu] = out.get(mu, 0) + 1
    return out


def test_strip_products_and_box_indices_match_brute_force():
    # Every index of every box with r <= 5 and width <= 6: iter_box_indices
    # keeps the lexicographic order of a filter over all tuples of the box,
    # and the product by zeta matches the brute force above.
    cases = 0
    for r in range(6):
        for width in range(7):
            shape = GrassShape(r, r + width)
            box = [b for b in product(range(width + 1), repeat=shape.rows)
                   if list(b) == sorted(b)]
            assert list(iter_box_indices(shape)) == box
            for max_weight in range(shape.dim + 2):
                assert list(iter_box_indices(shape, max_weight)) \
                    == [b for b in box if sum(b) <= max_weight]
            for b in box:
                got = pieri_multiply(SchubertCombo(shape, {b: 1})).by_index()
                assert got == _zeta_brute_force(shape, b), (shape, b)
                assert all(type(c) is int for c in got.values())
                cases += 1
    assert cases == 3424
    # Coefficients of opposite sign that meet on one index cancel.
    shape = GrassShape(1, 3)
    mixed = SchubertCombo(shape, {(0, 2): 1, (1, 1): -1})
    assert pieri_multiply(mixed).by_index() == {}


# Widths on both sides of each entry size's limit: 1, 2, 4 and 8 bytes.
WIDE_BOXES = [254, 255, 256, 2 ** 16 - 1, 2 ** 16, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


def _box_corners(shape):
    # Every index with entries among 0, 1, width - 1 and width.
    width = shape.width
    return list(combinations_with_replacement(sorted({0, 1, width - 1, width}), shape.rows))


@pytest.mark.parametrize("width", WIDE_BOXES)
def test_packed_indices_round_trip_at_the_box_corners(width):
    # The entry is the narrowest of 1, 2, 4 and 8 bytes that holds the
    # width; every corner of the box packs, reads back and multiplies as
    # the brute force says, including a last row at the width, whose grown
    # entry width + 1 leaves its field before the product takes it back.
    for r in range(4):
        shape = GrassShape(r, r + width)
        code = IndexCode(shape)
        for b in _box_corners(shape):
            key = code.pack(b)
            assert key == sum(x << s for x, s in zip(b, code.shifts))
            entries = code.entries(key)
            assert tuple(entries) == b
            assert width < 256 ** entries.itemsize
            assert entries.itemsize == 1 or width >= 256 ** (entries.itemsize // 2)
            assert SchubertCombo(shape, {b: 3}).by_index() == {b: 3}
            assert pieri_multiply(SchubertCombo(shape, {b: 1})).by_index() \
                == _zeta_brute_force(shape, b), (shape, b)
        assert code.ones == code.pack((1,) * shape.rows)
    # Both routes near the point class of a wide box.
    shape = GrassShape(2, 2 + width)
    for b in [(width - 3, width - 2, width - 1), (width - 2, width - 2, width)]:
        k = (shape.dim - sum(b)) // 2
        assert zeta_power_integral_pieri(shape, k, b) == special_power_integral(shape, k, b) > 0


def test_a_box_wider_than_every_entry_is_refused():
    width = 2 ** 64
    for r in (0, 1):
        shape = GrassShape(r, r + width)
        with pytest.raises(PreconditionError, match=f"width {width}; use the closed form"):
            zeta_power_integral_pieri(shape, 1, (0,) * shape.rows)
        assert special_power_integral(shape, 0, (width,) * shape.rows) == 1


@pytest.mark.parametrize("order", ["little", "big"])
def test_packed_fields_sit_in_row_order_on_either_byte_order(monkeypatch, order):
    # A host of either byte order reads entry i natively from the bytes
    # [i * size, (i + 1) * size) of the int written in its order; the bit
    # offsets that products subtract at must name that same field.
    monkeypatch.setattr(sys, "byteorder", order)
    for width in [3] + WIDE_BOXES:
        shape = GrassShape(2, 2 + width)
        code = IndexCode(shape)
        size = code.nbytes // shape.rows
        assert code.ones == sum(1 << s for s in code.shifts)
        for b in _box_corners(shape):
            raw = sum(x << s for x, s in zip(b, code.shifts)).to_bytes(code.nbytes, order)
            assert tuple(int.from_bytes(raw[i * size:(i + 1) * size], order)
                         for i in range(shape.rows)) == b
    # With one-byte entries the native reading is the same on both orders,
    # so the whole route runs as it would on a host of this order.
    for shape, k, b in _oracle_cases(max_dim=12, max_weight=4):
        assert zeta_power_integral_pieri(shape, k, b) == special_power_integral(shape, k, b)


def _check_dual_map(shape, indices):
    code = IndexCode(shape)
    width, r = shape.width, shape.r
    for b in indices:
        key = code.pack(b)
        dual = code.dual(key)
        assert tuple(code.entries(dual)) == tuple(width - b[r - i] for i in range(r + 1)), b
        assert code.dual(dual) == key
    assert code.dual(0) == code.point == code.pack((width,) * shape.rows)


@pytest.mark.parametrize("order", ["little", "big"])
def test_the_dual_of_a_one_byte_index_reverses_and_complements_it(monkeypatch, order):
    # entry i of the dual is width - b[r - i], on a host of either byte order
    monkeypatch.setattr(sys, "byteorder", order)
    for r in range(5):
        for width in (0, 1, 3, 255):
            shape = GrassShape(r, r + width)
            indices = iter_box_indices(shape) if width < 255 else _box_corners(shape)
            _check_dual_map(shape, indices)


def test_the_dual_of_a_wide_index_reverses_and_complements_it():
    # entries of two bytes and more, in host byte order
    for width in WIDE_BOXES[2:]:
        for r in range(4):
            shape = GrassShape(r, r + width)
            assert IndexCode(shape).nbytes > shape.rows
            _check_dual_map(shape, _box_corners(shape))


def test_the_paired_halves_match_the_closed_form_on_a_wide_pencil_box():
    # (r, d) = (1, 300): two-byte entries, the widest box the CLI admits;
    # each power on the dimension and one either side of it
    shape = GrassShape(1, 300)
    for b in [(0, 0), (0, 3)]:
        top = shape.dim - sum(b)
        for k in (top - 1, top, top + 1):
            assert zeta_power_integral_pieri(shape, k, b) == special_power_integral(shape, k, b), \
                (b, k)
        assert special_power_integral(shape, top, b) > 0


def test_strip_products_match_brute_force_on_long_runs_of_tied_rows():
    # Every index of every box with r = 5..10 and width <= 3, so an index has
    # runs of up to 11 equal rows, against the same brute force.
    cases = 0
    for r in range(5, 11):
        for width in range(4):
            shape = GrassShape(r, r + width)
            for b in iter_box_indices(shape):
                assert pieri_multiply(SchubertCombo(shape, {b: 1})).by_index() \
                    == _zeta_brute_force(shape, b), (shape, b)
                cases += 1
    assert cases == 1610


def test_a_floored_product_is_the_full_product_filtered_by_its_first_entry():
    # Every index of every box with r <= 4 and width <= 5, as one term and
    # after 1-3 full products, and every floor from 0 to width + 2: the
    # floored product is the full product with the results whose first
    # entry is below the floor left out.
    cases = 0
    for r in range(5):
        for width in range(6):
            shape = GrassShape(r, r + width)
            for b in iter_box_indices(shape):
                combo = SchubertCombo(shape, {b: 1})
                for _ in range(4):
                    full = pieri_multiply(combo)
                    for floor in range(width + 3):
                        assert pieri_multiply(combo, floor).by_index() \
                            == {k: c for k, c in full.by_index().items() if k[0] >= floor}, \
                            (shape, combo.by_index(), floor)
                        cases += 1
                    combo = full
    assert cases == 26260
    # Cancellation is unchanged above the floor.
    shape = GrassShape(1, 3)
    mixed = SchubertCombo(shape, {(0, 2): 1, (1, 1): -1, (0, 1): 1})
    for floor in range(5):
        assert pieri_multiply(mixed, floor).by_index() \
            == {k: c for k, c in pieri_multiply(mixed).by_index().items() if k[0] >= floor}


def _oracle_cases(max_dim, max_weight):
    for r in range(0, max_dim + 1):
        for width in range(0, max_dim + 1):
            shape = GrassShape(r, r + width)
            if shape.dim > max_dim:
                continue
            for b in iter_box_indices(shape, max_weight):
                rest = shape.dim - sum(b)
                if r == 0:
                    if rest == 0:
                        yield shape, 0, b
                        yield shape, 2, b
                elif rest % r == 0:
                    yield shape, rest // r, b


def test_closed_form_matches_pieri_on_small_family():
    cases = 0
    for shape, k, b in _oracle_cases(max_dim=16, max_weight=6):
        assert special_power_integral(shape, k, b) == zeta_power_integral_pieri(shape, k, b), \
            (shape, k, b)
        cases += 1
    assert cases > 150


def test_pruned_pieri_route_matches_closed_form_for_every_power():
    # Every index of every shape with r <= 5 and width <= 6, and every power
    # up to two past the one that fills the box: the row-gap pruning must
    # not drop a term that reaches the point class, on or off the dimension.
    cases = 0
    for r in range(6):
        for width in range(7):
            shape = GrassShape(r, r + width)
            for b in iter_box_indices(shape):
                for k in range(shape.dim // max(r, 1) + 3):
                    assert special_power_integral(shape, k, b) \
                        == zeta_power_integral_pieri(shape, k, b), (shape, k, b)
                    cases += 1
    assert cases == 31560


def test_count_equals_top_zeta_power_for_small_triples():
    for t in rho_zero_triples(8):
        shape = GrassShape(t.r, t.d)
        n = castelnuovo_count(t.g, t.r, t.d)
        zeros = (0,) * (t.r + 1)
        assert special_power_integral(shape, t.g, zeros) == n
        assert zeta_power_integral_pieri(shape, t.g, zeros) == n


def test_work_limit_admits_the_largest_integral_of_the_battery():
    # verify at g_max 60 does its most Pieri work at (g, r, d) = (60, 9, 63).
    assert zeta_power_integral_pieri(GrassShape(9, 63), 60, (0,) * 10) \
        == castelnuovo_count(60, 9, 63)


def test_pieri_work_is_pinned_at_the_largest_integrals(monkeypatch):
    # The work that PIERI_WORK_LIMIT bounds, at the largest integral of
    # verify and at the genus-55 count: products made (ceil(g/2), since
    # for b = 0 the half zeta^floor(g/2) is on the way to the other),
    # terms times rows summed over them, and the terms the products built,
    # none of them below the floor it was asked for.
    for (g, r, d), products, work, built in [((60, 9, 63), 30, 38350, 4172),
                                             ((55, 10, 60), 28, 24024, 2373)]:
        seen = []

        def counting(combo, floor):
            out = pieri_multiply(combo, floor)
            assert all(key[0] >= floor for key in out.by_index()), floor
            seen.append((len(combo.terms) * combo.shape.rows, len(out.terms)))
            return out

        monkeypatch.setattr(schubert, "pieri_multiply", counting)
        zeta_power_integral_pieri(GrassShape(r, d), g, (0,) * (r + 1))
        assert (len(seen), sum(w for w, _ in seen), sum(n for _, n in seen)) \
            == (products, work, built)
        assert work < schubert.PIERI_WORK_LIMIT


def test_a_full_last_row_keeps_one_term_per_product(monkeypatch):
    # sigma_b with b = (0, ..., 0, width) times zeta^k, k on the dimension,
    # in the widest boxes the CLI admits: only the term whose rows all stay
    # full can reach the point class, so each of the k products keeps one
    # term and the work is k times the rows, far below the limit.
    for r in (1, 2, 3, 6):
        shape = GrassShape(r, 300)
        b = (0,) * r + (shape.width,)
        k = shape.width
        seen = []

        def counting(combo, floor):
            out = pieri_multiply(combo, floor)
            seen.append((len(combo.terms) * combo.shape.rows, len(out.terms)))
            return out

        monkeypatch.setattr(schubert, "pieri_multiply", counting)
        assert zeta_power_integral_pieri(shape, k, b) == special_power_integral(shape, k, b) == 1
        assert (len(seen), sum(w for w, _ in seen), sum(n for _, n in seen)) \
            == (k, k * shape.rows, k)


def test_pieri_route_stops_once_the_combination_is_empty(monkeypatch):
    calls = []

    def counting(combo, floor):
        calls.append(combo)
        return pieri_multiply(combo, floor)

    monkeypatch.setattr(schubert, "pieri_multiply", counting)
    shape = GrassShape(1, 3)
    assert zeta_power_integral_pieri(shape, 10 ** 4, (0, 0)) == 0
    assert len(calls) <= shape.dim // shape.r + 1
    calls.clear()
    assert zeta_power_integral_pieri(shape, 4, (0, 0)) == 2
    assert len(calls) == 2


def test_unit_class_routes_ignore_a_huge_power(monkeypatch):
    # For r = 0 zeta is the unit class: no product, no factorial of k.
    monkeypatch.setattr(schubert, "pieri_multiply", None)
    shape = GrassShape(0, 3)
    for b in iter_box_indices(shape):
        expected = 1 if b == (shape.width,) * shape.rows else 0
        assert special_power_integral(shape, 10 ** 9, b) == expected
        assert zeta_power_integral_pieri(shape, 10 ** 9, b) == expected
