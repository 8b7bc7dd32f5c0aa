"""Exact rational roots of univariate rational polynomials.

Candidates come from the rational root theorem; divisor enumeration uses
trial division plus Pollard rho so that constant terms with large smooth
values stay cheap.  Everything is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

_SMALL_PRIME_BOUND = 100_000

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (deterministic retry schedule)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|; {} for n in (0, 1, -1)."""
    n = abs(n)
    out: dict[int, int] = {}
    if n < 2:
        return out
    for p in range(2, _SMALL_PRIME_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n| (n nonzero)."""
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    out = [1]
    for p, k in sorted(factorize(n).items()):
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


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
    if len(cs) == 1:
        return []
    # clear denominators and content
    lcm = math.lcm(*(c.denominator for c in cs))
    ics = [c.numerator * (lcm // c.denominator) for c in cs]
    g = math.gcd(*ics)
    ics = [c // g for c in ics]

    roots: list[Fraction] = []
    # strip a power of t
    low = 0
    while ics[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        ics = ics[low:]
    if len(ics) == 1:
        return sorted(roots)

    def is_root(u: int, v: int) -> bool:
        # v^deg * q(u/v), by Horner in integers
        acc, vk = 0, 1
        for c in reversed(ics):
            acc = acc * u + c * vk
            vk *= v
        return acc == 0

    q1 = sum(ics)
    qm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ics))
    if q1 == 0:
        roots.append(Fraction(1))
    if qm1 == 0:
        roots.append(Fraction(-1))

    num_divs = divisors(ics[0])
    den_divs = divisors(ics[-1])
    for v in den_divs:
        for u in num_divs:
            if math.gcd(u, v) != 1:
                continue
            for su in (u, -u):
                if su in (1, -1) and v == 1:
                    continue  # handled by the q(+-1) shortcut
                # root u/v forces (u - v) | q(1) and (u + v) | q(-1)
                if q1 != 0 and (su - v == 0 or q1 % (su - v) != 0):
                    continue
                if qm1 != 0 and (su + v == 0 or qm1 % (su + v) != 0):
                    continue
                if is_root(su, v):
                    roots.append(Fraction(su, v))
    return sorted(set(roots))
