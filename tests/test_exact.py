import operator
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest

from grdcalc.exact import Poly, RatFunc, format_rational, quotient, ratfunc_equal
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


def test_quotient_divides_once():
    q = quotient(6, -4)
    assert type(q) is Fraction and (q.numerator, q.denominator) == (-3, 2)
    assert quotient(0, -7).denominator == 1
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)
    m = RatFunc.variable()
    for num, den, want in ((m * m - 1, m - 1, m + 1), (m, 3, m / 3), (3, m, 3 / m),
                           (Fraction(1, 2), m, 1 / (2 * m))):
        got = quotient(num, den)
        assert isinstance(got, RatFunc) and ratfunc_equal(got, want), (num, den)


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


def test_ratfunc_eval_identity_polynomial():
    m = RatFunc.variable()
    assert m.eval(3) == 3


def test_ratfunc_eval_gap_function_at_three():
    num = Poly([-6, 3, 48, -57, -24, 36])
    assert RatFunc(num).eval(1) == 0
    assert RatFunc(num).eval(3) == 5700
    f = RatFunc(num, Poly([0, 2, 13, 16, 23, 0, -10, -4, -8, 16]))
    assert f.eval(3) == Fraction(5700, 248820)
    assert f.eval(3) == Fraction(95, 4147)


def test_poly_eval_and_divmod():
    # Poly has no evaluation or division of its own: it is evaluated through
    # RatFunc, and the factor m - 1 is checked by multiplying back.
    p = Poly([-6, 3, 48, -57, -24, 36])
    assert RatFunc(p).eval(1) == 0
    assert RatFunc(p).eval(3) == 5700
    q = Poly([6, 3, -45, 12, 36])  # synthetic division of p by m - 1
    assert q * Poly([-1, 1]) == p
    assert ratfunc_equal(quotient(RatFunc(p), RatFunc(Poly([-1, 1]))), RatFunc(q))


def test_ratfunc_pole_raises():
    f = RatFunc(Poly([1]), Poly([-1, 1]))  # 1 / (m - 1)
    with pytest.raises(ZeroDivisionError, match=r"^pole at m = 1$"):
        f.eval(1)


def test_removable_singularity_is_a_pole():
    # (m^2 - 1)/(m - 1) is kept as given: equal to m + 1, but its stored
    # denominator vanishes at m = 1, so eval refuses that point.
    m = RatFunc.variable()
    f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert (f.num.ints, f.den.ints) == ((-1, 0, 1), (-1, 1))
    assert ratfunc_equal(f, m + 1)
    with pytest.raises(ZeroDivisionError, match=r"^pole at m = 1$"):
        f.eval(1)
    assert f.eval(2) == 3 and f.eval(Fraction(1, 2)) == Fraction(3, 2)


def test_ratfunc_equal_examples():
    m = RatFunc.variable()
    assert ratfunc_equal(m, m)
    unreduced = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert ratfunc_equal(unreduced, m + 1)
    assert not ratfunc_equal(m, m + 1)


def test_ratfunc_zero_denominator_rejected():
    m = RatFunc.variable()
    for build in (lambda: RatFunc(Poly([1]), Poly()), lambda: m / 0, lambda: m / (m - m),
                  lambda: 1 / (m - m), lambda: quotient(m, Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            build()


def test_constants_are_integer_pairs():
    # p/q becomes the pair (p, q); anything else is refused.
    for c, pair in ((0, ((), (1,))), (-4, ((-4,), (1,))), (Fraction(-3, 8), ((-3,), (8,)))):
        f = RatFunc(c)
        assert (f.num.ints, f.den.ints) == pair and f.eval(5) == c
    with pytest.raises(TypeError):
        RatFunc(0.5)
    with pytest.raises(TypeError):
        Poly([Fraction(1, 2)])


def test_ratfunc_arithmetic_field_identities(rng):
    m = RatFunc.variable()
    for _ in range(60):
        f = _rand_ratfunc(rng)
        g = _rand_ratfunc(rng)
        assert ratfunc_equal(f + g - g, f)
        if g.num.ints:
            assert ratfunc_equal(f * g / g, f)
        assert ratfunc_equal((f + g) * m, f * m + g * m)


def test_ratfunc_arithmetic_evaluates_like_the_values(rng):
    # Every operation, with rational functions, ints and Fractions on either
    # side, evaluates like the same operation on the values.
    m = RatFunc.variable()
    for _ in range(80):
        f, g = _rand_ratfunc(rng), _rand_ratfunc(rng)
        while not g.num.ints:
            g = _rand_ratfunc(rng)
        c = rand_fraction(rng, 6)
        k = rng.randint(-9, 9)
        x = next(x for x in range(20)
                 if _horner(f.den.ints, x) and _horner(g.den.ints, x) and _horner(g.num.ints, x))
        fx, gx = f.eval(x), g.eval(x)
        results = [(f, fx), (g, gx), (f + g, fx + gx), (f - g, fx - gx), (f * g, fx * gx),
                   (-f, -fx), (f + c, fx + c), (c - f, c - fx), (f * c, fx * c),
                   (c * f, c * fx), (f + m, fx + x), (m * f, x * fx), (f / g, fx / gx),
                   (c / g, c / gx), (f + k, fx + k), (k + f, k + fx), (f - k, fx - k),
                   (k - f, k - fx), (f * k, fx * k), (k * f, k * fx), (k / g, k / gx)]
        if c:
            results.append((f / c, fx / c))
        if k:
            results.append((f / k, fx / k))
        for h, value in results:
            assert isinstance(h, RatFunc) and h.eval(x) == value


def test_removable_singularity_built_by_arithmetic():
    m = RatFunc.variable()
    f = (m * m - 1) / (m - 1)
    assert ratfunc_equal(f, m + 1) and f == m + 1
    with pytest.raises(ZeroDivisionError, match=r"^pole at m = 1$"):
        f.eval(1)
    assert f.eval(2) == 3


def test_poly_kernels_match_fraction_reference(rng):
    def rand_poly(max_deg=6):
        cs = [_rand_coeff(rng) for _ in range(rng.randint(0, max_deg + 1))]
        if cs and rng.random() < 0.3:
            cs[-1] = -abs(cs[-1]) or -1
        if cs and rng.random() < 0.2:
            cs += [0] * rng.randint(1, 3)
        return cs

    fixed = [[], [0, 0], [3], [-2, 0], [0, -1], [1], [2 ** 61 + 1, -3, -(2 ** 60)]]
    cases = [(a, b) for a in fixed for b in fixed]
    cases += [(rand_poly(), rand_poly()) for _ in range(300)]
    for a, b in cases:
        pa, pb = Poly(a), Poly(b)
        assert pa.ints == _ref_trim(a) and pb.ints == _ref_trim(b)
        assert (pa * pb).ints == _ref_mul(a, b)
        assert (pa + pb).ints == _ref_trim(x + y for x, y in zip_longest(a, b, fillvalue=0))
        assert (-pa).ints == _ref_trim(-x for x in a)
        assert pa.scaled(-7).ints == _ref_trim(-7 * x for x in a)
        assert (pa == pb) == (_ref_trim(a) == _ref_trim(b))


def test_equality_matches_pointwise_sampling(rng):
    # Equal iff equal at 1 + max degree bound many distinct non-pole points.
    for _ in range(60):
        f = _rand_ratfunc(rng)
        g = _rand_ratfunc(rng)
        bound = 1 + max(len(f.num.ints) + len(g.den.ints), len(g.num.ints) + len(f.den.ints)) - 2
        points = []
        x = 0
        while len(points) < bound:
            if _horner(f.den.ints, x) != 0 and _horner(g.den.ints, x) != 0:
                points.append(x)
            x += 1
        pointwise = all(f.eval(p) == g.eval(p) for p in points)
        assert pointwise == ratfunc_equal(f, g)


def test_eval_on_ints_matches_fraction_horner(rng):
    points = [0, 1, -1, 2 ** 70, Fraction(1, 2), Fraction(-7, 3), Fraction(3, 2 ** 65)]
    points += [rng.randint(-10 ** 6, 10 ** 6) for _ in range(10)]
    points += [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
               for _ in range(10)]
    for _ in range(80):
        f = _rand_ratfunc(rng)
        for x in points:
            nv, dv = _horner(f.num.ints, x), _horner(f.den.ints, x)
            if dv:
                assert f.eval(x) == nv / dv
            else:
                with pytest.raises(ZeroDivisionError):
                    f.eval(x)
    assert RatFunc().eval(Fraction(1, 3)) == 0 and RatFunc(5).eval(Fraction(1, 3)) == 5


def test_eval_where_only_the_unreduced_denominator_vanishes():
    # (m - a)(m + 1) / ((m - a)(m - 7)) equals (m + 1)/(m - 7), but its stored
    # denominator vanishes at m = a: eval names that pole, built either way.
    m = RatFunc.variable()
    for a in (5, -3, Fraction(2, 3), Fraction(-9, 4)):
        factor = Poly([-a.numerator, a.denominator])  # q*m - p at a = p/q
        built = [RatFunc(factor * Poly([1, 1]), factor * Poly([-7, 1])),
                 (m - a) * (m + 1) / ((m - a) * (m - 7))]
        for f in built:
            assert ratfunc_equal(f, (m + 1) / (m - 7))
            with pytest.raises(ZeroDivisionError, match=f"^pole at m = {format_rational(a)}$"):
                f.eval(a)
            assert f.eval(a + 1) == Fraction(a + 2) / (a - 6)


def test_random_expression_trees_match_fraction_evaluation(rng):
    # Arithmetic keeps unreduced pairs; whatever the chain, the value and the
    # equality must be those of the function itself: wherever the chain can be
    # evaluated, the stored denominator does not vanish.
    m = RatFunc.variable()
    points = [0, 1, 2, -3, 11, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 9)]

    def build(depth):
        if depth == 0:
            kind = rng.randrange(4)
            if kind == 0:
                c = rng.randint(-5, 5)
                return c, lambda x: Fraction(c)
            if kind == 1:
                c = rand_fraction(rng, 9)
                return c, lambda x: c
            if kind == 2:
                return m, lambda x: Fraction(x)
            f = _rand_ratfunc(rng, max_deg=2)
            return f, f.eval
        (a, fa), (b, fb) = build(depth - 1), build(rng.randint(0, min(2, depth - 1)))
        if rng.random() < 0.5:
            (a, fa), (b, fb) = (b, fb), (a, fa)
        op = rng.choice([operator.add, operator.sub, operator.mul, operator.truediv])
        if op is operator.truediv and b == 0:
            op = operator.add
        if not isinstance(a, RatFunc) and not isinstance(b, RatFunc):
            a = Fraction(a)  # keep int / int exact
        return op(a, b), lambda x: op(fa(x), fb(x))

    checked = 0
    for _ in range(60):
        h, at = build(rng.randint(6, 8))
        if not isinstance(h, RatFunc):
            continue
        for x in points:
            try:
                expected = at(x)
            except ZeroDivisionError:
                continue
            assert h.eval(x) == expected
            checked += 1
        # The same function built another way is equal.
        k = _rand_ratfunc(rng, max_deg=2)
        while not k.num.ints:
            k = _rand_ratfunc(rng, max_deg=2)
        assert h * k / k == h and h + k - k == h and h != h + 1
    assert checked > 200


def test_ratfunc_is_unhashable():
    # Equal functions may be held by different pairs, so none is a key.
    m = RatFunc.variable()
    f, g = (m * m - 1) / (m - 1), m + 1
    assert f == g
    for x in (f, g, f.num):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    with pytest.raises(TypeError):
        {f: "a"}


def _horner(ints, x):
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _rand_ratfunc(rng, max_deg=3):
    num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, max_deg + 1))])
    den = Poly()
    while not den.ints:
        den = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, max_deg + 1))])
    return RatFunc(num, den)


def _rand_coeff(rng):
    if rng.random() < 0.2:
        return rng.randint(-2 ** 64, 2 ** 64)
    return rng.randint(-9, 9)


# Schoolbook reference kernels on ascending int sequences, kept apart from
# the kernels of grdcalc.exact.

def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)
