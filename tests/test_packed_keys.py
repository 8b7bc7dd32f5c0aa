"""MPoly's packed-key arithmetic against a tuple-keyed reference.

Seeded draws with plain `random`, so the test runs without hypothesis.
Exponents are small or near the default field width (2^31 - 1, 2^31,
2^32) or far past it (10^30), so sums, products and derivatives cross
between the default width and wider ones in both directions.
"""

import random
from fractions import Fraction

from bsideal.polynomials import MPoly, grlex_key

EDGES = (2**31 - 1, 2**31, 2**32 - 1, 2**32, 10**30)


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(p, n, k):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_derivative(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.items() if e[i]}


def ref_top(p):
    d = max(map(sum, p), default=-1)
    return {e: c for e, c in p.items() if sum(e) == d}


def draw_exponent(rng):
    if rng.random() < 0.5:
        return rng.randint(0, 3)
    return rng.choice(EDGES) - rng.randint(0, 2)


def draw_terms(rng, n):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(draw_exponent(rng) for _ in range(n))
        terms[e] = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
    return {e: c for e, c in terms.items() if c}


def check(p, terms):
    """p holds exactly terms, equals and hashes like MPoly built from them,
    and orders and measures them as graded lex does."""
    assert dict(p.terms) == terms
    direct = MPoly(p.nvars, terms)
    assert p == direct and hash(p) == hash(direct)
    assert p.total_degree() == max(map(sum, terms), default=-1)
    assert [e for e, _ in p.sorted_terms()] == sorted(terms, key=grlex_key, reverse=True)


def test_packed_arithmetic_matches_tuple_reference():
    rng = random.Random(20070715)
    for _ in range(300):
        n = rng.randint(1, 5)
        P, Q = draw_terms(rng, n), draw_terms(rng, n)
        p, q = MPoly(n, P), MPoly(n, Q)
        check(p, P)
        check(p + q, ref_add(P, Q))
        check(p - q, ref_add(P, Q, -1))
        check(p * q, ref_mul(P, Q))
        assert p * q == q * p and hash(p * q) == hash(q * p)
        check((p + q) - q, P)
        k = rng.randint(0, 3)
        check(p**k, ref_pow(P, n, k))
        i = rng.randrange(n)
        check(p.derivative(i), ref_derivative(P, i))
        before, after = rng.randint(0, 2), rng.randint(0, 2)
        padded = {(0,) * before + e + (0,) * after: c for e, c in P.items()}
        check(p.padded(before, after), padded)
        check(p.top_form(), ref_top(P))


def test_cancelled_top_terms_return_to_the_default_width():
    n = 3
    low = {(1, 2, 0): 3, (0, 0, 1): Fraction(1, 2), (0, 0, 0): -1}
    for d in EDGES:
        high = MPoly(n, {(d, 1, 0): 7, (0, d, 2): -2})
        built = MPoly(n, low)
        for p in (
            (built + high) - high,
            high + built - high,
            (high + built) * MPoly.const(n, 1) + (-high),
        ):
            check(p, low)
            assert p == built and hash(p) == hash(built)
        # the derivative of a wide polynomial can be narrow again
        lone = MPoly(n, {(d, 0, 0): 1, (0, 1, 0): 5})
        assert lone.derivative(1) == MPoly.const(n, 5)
        assert hash(lone.derivative(1)) == hash(MPoly.const(n, 5))
