"""Exact rational roots of univariate rational polynomials, by p-adic lifting.

The method is R. Loos, "Computing rational zeros of integral polynomials by
p-adic expansion", SIAM J. Comput. 12 (1983).  It factors no integer, so
its cost is polynomial in the degree and in the size of the coefficients.

After denominators, content and a power of t are cleared, the integer
polynomial q is made square-free: g = q / gcd(q, q').  The prime p is the
first one above deg g that does not divide lc = lc(g) and at which every
root r of g mod p is simple, g'(r) != 0 (mod p).  Newton's iteration lifts
each such r modulo m = p^(2^k) until m > 4 max|g_i|.  The symmetric residue
w of lc * r mod m gives the candidate w / lc, kept when g(w / lc) = 0
exactly.

Why this finds every root:

- g is square-free, so its discriminant is nonzero, and only the primes
  dividing lc times it can fail; the search for p ends.
- A root u/v in lowest terms has v | lc.  As p does not divide lc, u/v
  reduces to a root r of g mod p, and r is simple by the choice of p.
- g'(r) is a unit mod p, so Newton's iteration lifts r to the unique
  p-adic root above it, which is u/v.
- By the Cauchy bound |u/v| < 1 + max_{i<d} |g_i / lc|, so the integer
  lc * u/v has absolute value below 2 max|g_i| < m/2, and the symmetric
  residue recovers it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polynomials import primitive

# Integer polynomials are coefficient sequences in ascending order, trimmed so
# that the last entry is nonzero.


def _horner(a: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _pdiv(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: (Q, R) with lc(b)^k * a = Q * b + R, deg R < deg b."""
    a, q, lb = list(a), [], b[-1]
    for shift in reversed(range(len(a) - len(b) + 1)):
        c = a.pop()
        q = [c] + [lb * x for x in q]
        a = [lb * x for x in a]
        for i, y in enumerate(b[:-1]):
            a[shift + i] -= c * y
    while a and a[-1] == 0:
        a.pop()
    return q, a


def rational_roots(coeffs: Sequence[Fraction | int]) -> list[Fraction]:
    """All rational roots of sum(coeffs[i] * t**i), sorted ascending.

    Roots are reported without multiplicity.  The zero polynomial is
    rejected.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    # clear denominators and content, then strip a power of t
    q = primitive(cs)[1]
    low = next(i for i, c in enumerate(q) if c)
    roots = [Fraction(0)] if low else []
    q = q[low:]
    if len(q) == 1:
        return roots
    # square-free part g = q / gcd(q, q')
    a, b = q, primitive([i * c for i, c in enumerate(q)][1:])[1]
    while len(b) > 1:
        a, b = b, primitive(_pdiv(a, b)[1])[1]
    g = q if b else primitive(_pdiv(q, a)[0])[1]
    dg = [i * c for i, c in enumerate(g)][1:]
    lc = g[-1]
    p = len(g) - 1
    while True:
        p += 1
        if lc % p == 0 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            continue
        residues = [r for r in range(p) if _horner(g, r, p) == 0]
        if all(_horner(dg, r, p) for r in residues):
            break
    bound = 4 * max(map(abs, g))
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(g, r, m) * pow(_horner(dg, r, m), -1, m)) % m
        w = lc * r % m
        root = Fraction(w - m if 2 * w > m else w, lc)
        u, v = root.numerator, root.denominator
        # v^deg * g(u/v), by Horner in integers
        acc, vk = 0, 1
        for c in reversed(g):
            acc, vk = acc * u + c * vk, vk * v
        if acc == 0:
            roots.append(root)
    return sorted(roots)
