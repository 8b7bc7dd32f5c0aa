import random
from fractions import Fraction

import pytest

from bsideal.ratroots import rational_roots


def mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_frozen():
    # (t + 1)(2t + 1)(2t - 3) = 4t^3 - 7t - 3
    assert rational_roots([-3, -7, 0, 4]) == [
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(3, 2),
    ]
    assert rational_roots([1, 0, 1]) == []
    # t^2 + t = t(t + 1)
    assert rational_roots([0, 1, 1]) == [Fraction(-1), Fraction(0)]
    assert rational_roots([5]) == []


def test_rational_roots_fractional_coeffs():
    # (t - 1/3)(t + 1/2), scaled or not, same roots
    coeffs = [Fraction(-1, 6), Fraction(1, 6), Fraction(1)]
    assert rational_roots(coeffs) == [Fraction(-1, 2), Fraction(1, 3)]


def test_rational_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_random_products():
    # repeated roots, fractional coefficients and, sometimes, an
    # irreducible quadratic factor t^2 + k that adds no root
    rng = random.Random(404)
    for _ in range(200):
        roots = set()
        coeffs = [Fraction(rng.randint(1, 6), rng.randint(1, 6))]
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.15:
                factor = [Fraction(rng.randint(1, 6), rng.randint(1, 6)), 0, Fraction(1)]
            else:
                p, q = rng.randint(-6, 6), rng.randint(1, 6)
                roots.add(Fraction(p, q))
                factor = [Fraction(-p, q), Fraction(1)]
            for _ in range(rng.randint(1, 3)):
                coeffs = mul(coeffs, factor)
        assert rational_roots(coeffs) == sorted(roots)


def test_rational_roots_many_roots():
    # (t + 1) * prod_{j=1..60} (3601 t + j): the constant term is 60!
    coeffs = [Fraction(1), Fraction(1)]
    for j in range(1, 61):
        coeffs = mul(coeffs, [Fraction(j), Fraction(3601)])
    expected = sorted({Fraction(-j, 3601) for j in range(1, 61)} | {Fraction(-1)})
    assert rational_roots(coeffs) == expected


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coefficient = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    factor = st.tuples(
        st.lists(coefficient, min_size=2, max_size=4).filter(lambda f: f[-1] != 0),
        st.integers(1, 3),
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(factor, min_size=1, max_size=5))
    def check(factors):
        coeffs = [Fraction(1)]
        for f, k in factors:
            for _ in range(k):
                coeffs = mul(coeffs, f)
        t = sympy.Symbol("t")
        poly = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
            t, domain="QQ",
        )
        expected = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
        assert rational_roots(coeffs) == expected

    check()
