import itertools
import math
import random
from fractions import Fraction

import pytest

from bsideal.polynomials import (
    MPoly,
    PolyParseError,
    _log_height,
    format_poly,
    grlex_key,
    iter_monomials,
    parse_poly,
    primitive,
    s_names,
)


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def test_normalization_drops_zero_terms():
    p = MPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert p.terms == {(1, 0): Fraction(1)}
    assert MPoly(2, {(0, 0): Fraction(0)}).is_zero()


def test_equality_and_hash():
    a = P("x + y")
    b = P("y + x")
    assert a == b
    assert hash(a) == hash(b)
    assert a != P("x - y")


def test_arithmetic_square():
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("x + y") * P("x - y") == P("x^2 - y^2")
    assert P("x") - P("x") == MPoly(2)


def test_pow():
    assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")
    assert P("x") ** 0 == MPoly.const(2, 1)


def test_derivative():
    p = P("x^2*y + 3*x")
    assert p.derivative(0) == P("2*x*y + 3")
    assert p.derivative(1) == P("x^2")
    assert MPoly.const(2, 5).derivative(0).is_zero()


def test_top_form():
    assert P("x^2 + y^2 + x + 1").top_form() == P("x^2 + y^2")
    assert P("3").top_form() == P("3")


def test_grlex_order():
    # total degree first, then exponent tuple
    assert grlex_key((0, 3)) > grlex_key((2, 0))
    assert grlex_key((2, 0)) > grlex_key((1, 1))
    exps = [e for e, _ in P("1 + x + y^2 + x*y").sorted_terms()]
    assert exps == [(1, 1), (0, 2), (1, 0), (0, 0)]


def test_format_canonical():
    assert format_poly(P("x^2 + 2*x + 1"), ["x", "y"]) == "x^2 + 2*x + 1"
    assert format_poly(P("-x + y"), ["x", "y"]) == "-x + y"
    assert format_poly(P("x/2 - 1"), ["x", "y"]) == "1/2*x - 1"
    assert format_poly(MPoly(2), ["x", "y"]) == "0"


def test_parse_format_roundtrip():
    rng = random.Random(403)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = MPoly(2, terms)
        assert parse_poly(format_poly(p, ["x", "y"]), ["x", "y"]) == p


def test_parse_rejects_garbage():
    deep = ("(" * 500 + "x" + ")" * 500, "-" * 2000 + "x")
    # past the parse limit: a power, a product, nested powers
    huge = ("9^100000", "(x+y)^200 * (x-y)^200", "((x+y)^9)^100")
    for bad in ("x +", "x ** 2", "x^-1", "z", "x / y", "(x", "x^1.5", "", *deep, *huge):
        with pytest.raises(PolyParseError):
            parse_poly(bad, ["x", "y"])


def test_parse_limit_bounds_terms_and_coefficient_bits():
    # the parse limit must not refuse what it claims to bound: terms and
    # coefficient bits of p * q and p^k stay within the bounds it computes
    def bits(c):
        return c.numerator.bit_length() + c.denominator.bit_length()

    rng = random.Random(10)
    for _ in range(40):
        p, q = (
            MPoly(2, {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                for _ in range(rng.randint(1, 5))
            })
            for _ in range(2)
        )
        for c in p.terms.values():
            assert bits(c) <= _log_height(p) + 2
        pq = p * q
        assert len(pq.terms) <= len(p.terms) * len(q.terms)
        assert all(bits(c) <= _log_height(p) + _log_height(q) + 2 for c in pq.terms.values())
        for k in range(5):
            pk = p**k
            assert len(p.terms) < 2 or len(pk.terms) <= math.comb(len(p.terms) + k - 1, k)
            assert all(bits(c) <= k * _log_height(p) + 2 for c in pk.terms.values())


def test_parse_limit_spares_single_terms():
    # one term stays one term, however high the power
    assert P("x^" + "9" * 100).terms == {(int("9" * 100), 0): 1}
    assert P("(-x*y)^100001").terms == {(100001, 100001): -1}


def test_parse_rational_coefficients():
    assert P("3/4*x") == MPoly(2, {(1, 0): Fraction(3, 4)})
    assert P("x/4") == MPoly(2, {(1, 0): Fraction(1, 4)})
    with pytest.raises(PolyParseError):
        parse_poly("x/0", ["x", "y"])


def test_iter_monomials():
    got = list(iter_monomials(2, 2))
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # the lazy generator matches a full grlex sort, empty ranges included
    for n in range(5):
        for d in range(-1, 7):
            every = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
            assert list(iter_monomials(n, d)) == sorted(every, key=grlex_key)


def test_s_names():
    assert s_names(1) == ["s"]
    assert s_names(3) == ["s1", "s2", "s3"]


def test_padded():
    p = P("x*y")
    names = ["w", "x", "y", "z"]
    assert p.padded(1, 1) == parse_poly("x*y", names)
    assert p.padded(2, 0) == parse_poly("y*z", names)
    assert p.padded(0, 2) == parse_poly("w*x", names)


def test_primitive_examples():
    assert primitive([Fraction(-2, 3), 4, 0]) == (Fraction(2, 3), (-1, 6, 0))
    assert primitive((6, -9)) == (3, (2, -3))
    assert primitive([0, 0]) == (1, (0, 0))
    assert primitive([]) == (1, ())


def test_primitive_is_content_times_coprime_ints():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    value = st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
        st.just(0),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(value, max_size=6))
    def check(values):
        content, ints = primitive(values)
        assert type(content) is Fraction and content > 0
        assert all(type(v) is int for v in ints)
        assert [content * v for v in ints] == values
        if any(values):
            assert math.gcd(*ints) == 1
        else:
            assert content == 1

    check()


def test_unit_products_return_the_other_operand():
    # a one-term operand that is the constant 1 hands back the other
    # operand itself; every other one-term operand still scales or shifts
    for one in (MPoly.const(2, 1), MPoly.const(2, Fraction(1))):
        for p in (P("x^2 + 3*x*y - 2"), P("x/2 - 2/3*y + 1/5"), MPoly(2)):
            assert p * one == p and one * p == p
            assert p * one is p
            if len(p.terms) != 1:
                assert one * p is p
        assert one * one == one
    p = P("x/2 + y")
    assert p * MPoly.const(2, 2) == MPoly.const(2, 2) * p == P("x + 2*y")
    assert p * MPoly.const(2, -1) == -p
    assert p * P("x") == P("x") * p == P("x^2/2 + x*y")
    assert MPoly.const(2, 1) * P("x") == P("x")
    for one in (MPoly.const(3, 1), MPoly.const(3, Fraction(1))):
        with pytest.raises(ValueError):
            p * one
        with pytest.raises(ValueError):
            one * p
