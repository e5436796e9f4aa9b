from fractions import Fraction
from math import gcd

import pytest

from grdcalc.exact import Poly, RatFunc, format_rational, poly_gcd, ratfunc_equal
from conftest import rand_fraction


def test_slope_margin_is_positive():
    # Long-division oracle: 6 + 12/22 = 72/11, and the margin over 2459/377
    # is (72*377 - 2459*11) / (11*377).
    margin_num = 72 * 377 - 2459 * 11
    margin = Fraction(margin_num, 11 * 377)
    assert margin_num == 95
    got = 6 + Fraction(12, 22) - Fraction(2459, 377)
    assert got == margin
    assert got > 0


def test_canonical_form_after_random_ops(rng):
    for _ in range(400):
        a, b = rand_fraction(rng), rand_fraction(rng)
        for out in [a + b, a - b, a * b] + ([a / b] if b != 0 else []):
            assert out.denominator > 0
            assert gcd(abs(out.numerator), out.denominator) == 1


def test_format_and_parse_round_trip(rng):
    assert format_rational(Fraction(312)) == "312"
    assert format_rational(Fraction(-377, 95)) == "-377/95"
    assert Fraction("2459/377") == Fraction(2459, 377)
    for _ in range(100):
        x = rand_fraction(rng, span=500)
        assert Fraction(format_rational(x)) == x


def test_poly_eval_and_divmod():
    p = Poly([-6, 3, 48, -57, -24, 36])
    assert p(1) == 0
    assert p(3) == 5700
    q, rem = divmod(p, Poly([-1, 1]))
    assert rem.is_zero()
    assert q * Poly([-1, 1]) == p


def test_poly_gcd_is_monic():
    a = Poly([-1, 0, 1])  # m^2 - 1
    b = Poly([-2, 2])     # 2m - 2
    g = poly_gcd(a, b)
    assert g == Poly([-1, 1])


def test_ratfunc_eval_identity_polynomial():
    m = RatFunc.variable()
    assert m.eval(3) == 3


def test_ratfunc_eval_gap_function_at_three():
    f = RatFunc(Poly([-6, 3, 48, -57, -24, 36]),
                Poly([0, 2, 13, 16, 23, 0, -10, -4, -8, 16]))
    assert f.eval(3) == Fraction(5700, 248820)
    assert f.eval(3) == Fraction(95, 4147)


def test_ratfunc_pole_raises():
    f = RatFunc(Poly([1]), Poly([-1, 1]))  # 1 / (m - 1)
    with pytest.raises(ZeroDivisionError):
        f.eval(1)


def test_removable_singularity_is_normalized_away():
    # (m^2 - 1)/(m - 1) reduces to m + 1 on construction, so evaluation at
    # the cancelled root is defined.
    f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.num == Poly([1, 1])
    assert f.den == Poly([1])
    assert f.eval(1) == 2


def test_ratfunc_equal_examples():
    m = RatFunc.variable()
    assert ratfunc_equal(m, m)
    reduced = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert ratfunc_equal(reduced, m + 1)
    assert not ratfunc_equal(m, m + 1)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly([1]), Poly())


def test_ratfunc_arithmetic_field_identities(rng):
    m = RatFunc.variable()
    for _ in range(60):
        f = _rand_ratfunc(rng)
        g = _rand_ratfunc(rng)
        assert ratfunc_equal(f + g - g, f)
        if not g.is_zero():
            assert ratfunc_equal(f * g / g, f)
        assert ratfunc_equal((f + g) * m, f * m + g * m)


def test_ratfunc_normalized_invariants(rng):
    # Results of arithmetic are stored reduced too, and evaluate like the
    # same operation on the values.
    m = RatFunc.variable()
    for _ in range(80):
        f, g = _rand_ratfunc(rng), _rand_ratfunc(rng)
        while g.is_zero():
            g = _rand_ratfunc(rng)
        c = rand_fraction(rng, 6)
        x = next(x for x in range(20) if f.den(x) and g.den(x) and g.num(x))
        fx, gx = f.eval(x), g.eval(x)
        results = [(f, fx), (g, gx), (f + g, fx + gx), (f - g, fx - gx), (f * g, fx * gx),
                   (-f, -fx), (f + c, fx + c), (c - f, c - fx), (f * c, fx * c),
                   (c * f, c * fx), (f + m, fx + x), (m * f, x * fx), (f / g, fx / gx),
                   (c / g, c / gx)]
        if c:
            results.append((f / c, fx / c))
        for h, value in results:
            assert h.den.leading() == 1
            assert poly_gcd(h.num, h.den).degree() <= 0
            assert not h.is_zero() or h.den == Poly([1])
            assert h.eval(x) == value


def test_removable_singularity_built_by_arithmetic():
    m = RatFunc.variable()
    f = (m * m - 1) / (m - 1)
    assert (f.num, f.den) == (Poly([1, 1]), Poly([1]))
    assert f.eval(1) == 2


def test_poly_kernels_match_fraction_reference(rng):
    def rand_poly(max_deg=6):
        cs = [_rand_coeff(rng) for _ in range(rng.randint(0, max_deg + 1))]
        if cs and rng.random() < 0.3:
            cs[-1] = -abs(cs[-1]) or Fraction(-1)
        return Poly(cs)

    fixed = [Poly(), Poly([3]), Poly([Fraction(-2, 7)]), Poly([0, -1]),
             Poly([2 ** 61 + 1, Fraction(-3, 2 ** 64 - 59), -(2 ** 60)])]
    cases = [(a, b) for a in fixed for b in fixed]
    cases += [(rand_poly(), rand_poly()) for _ in range(300)]
    for a, b in cases:
        assert (a * b).coeffs == _ref_mul(a.coeffs, b.coeffs)
        assert poly_gcd(a, b).coeffs == _ref_gcd(a.coeffs, b.coeffs)
        if not b.is_zero():
            q, r = divmod(a, b)
            assert (q.coeffs, r.coeffs) == _ref_divmod(a.coeffs, b.coeffs)
    planted = 0
    while planted < 100:
        f, u, v = rand_poly(3), rand_poly(4), rand_poly(4)
        if f.degree() < 1 or u.is_zero() or v.is_zero() or len(_ref_gcd(u.coeffs, v.coeffs)) > 1:
            continue
        planted += 1
        lead = f.leading()
        assert poly_gcd(f * u, v * f).coeffs == tuple(c / lead for c in f.coeffs)


def test_equality_matches_pointwise_sampling(rng):
    # Equal iff equal at 1 + max degree bound many distinct non-pole points.
    for _ in range(60):
        f = _rand_ratfunc(rng)
        g = _rand_ratfunc(rng)
        bound = 1 + max(f.num.degree() + g.den.degree(),
                        g.num.degree() + f.den.degree(), 0)
        points = []
        x = 0
        while len(points) < bound:
            if f.den(x) != 0 and g.den(x) != 0:
                points.append(x)
            x += 1
        pointwise = all(f.eval(p) == g.eval(p) for p in points)
        assert pointwise == ratfunc_equal(f, g)


def _rand_ratfunc(rng):
    num = Poly([rand_fraction(rng, 6) for _ in range(rng.randint(0, 4))])
    den = Poly()
    while den.is_zero():
        den = Poly([rand_fraction(rng, 6) for _ in range(rng.randint(1, 4))])
    return RatFunc(num, den)


def _rand_coeff(rng):
    if rng.random() < 0.2:
        return Fraction(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 2 ** 62))
    return rand_fraction(rng, 9)


# Schoolbook reference kernels on ascending Fraction tuples, kept apart from
# the integer kernels of grdcalc.exact.

def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = list(_ref_trim(rem))
    return _ref_trim(quot), _ref_trim(rem)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()
