"""Affine hyperplanes split off the zero locus of parameter polynomials.

`extract_hyperplanes` peels every linear factor L.s + b with L a
nonnegative primitive integer slope (entries of any size) and b rational,
returning factors with multiplicity plus the unfactored remainder; the
product always reconstructs the input exactly.  Factors whose slope has
entries of both signs stay in the remainder.

A caller that expects some factors, such as the hyperplanes L_k.s + j a
resolution graph predicts, passes them as candidates: each is divided
out first by exact division, as often as it divides, and the search
below runs only on the remainder.  A candidate that is not a factor
costs one failed division; factorization in Z[s] is unique, so the
answer is the same with or without candidates.

The search takes its slopes from the top-degree form T of the remainder,
found by recursion on the number of variables: L.s with L_1 != 0 divides
T exactly when L_1 + L'.s' divides T(1, s'), an affine factor in one
variable fewer.  Its intercepts come from rational roots of the
restriction of the remainder to a deterministic line in direction L;
they over-generate and every one is confirmed by exact division, so the
factorization is complete.

All of it runs in Z[s]: p = c * p~ once, with c rational and p~
primitive, and a hyperplane L.s + u/v is divided out as its primitive
form v*L.s + u.  An exact quotient of primitive polynomials is integral
(Gauss's lemma), so the division stops at the first coefficient that the
form's lead does not divide.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomials import (
    MPoly,
    Record,
    Scalar,
    _coerce,
    _setattr,
    format_poly,
    grlex_key,
    iter_monomials,
    primitive,
    s_names,
)
from .ratroots import rational_roots


class Hyperplane(Record):
    """L.s + intercept == 0 with L primitive integer, first nonzero entry positive."""

    __slots__ = ("normal", "intercept")
    normal: tuple[int, ...]
    intercept: Fraction

    def _check(self):
        if not self.normal or all(v == 0 for v in self.normal):
            raise ValueError("normal vector must be nonzero")
        first = next(v for v in self.normal if v)
        if math.gcd(*self.normal) != 1 or first < 0:
            raise ValueError("normal vector must be primitive with positive lead")
        if not isinstance(self.intercept, Fraction):  # Fraction(q) would copy q
            _setattr(self, "intercept", Fraction(_coerce(self.intercept)))

    @classmethod
    def canonical(cls, normal: Sequence[Scalar], intercept: Scalar) -> "Hyperplane":
        """Scale rational (L, b) to the primitive normal form."""
        content, ints = primitive(normal)
        first = next((v for v in ints if v), 0)
        if not first:
            raise ValueError("normal vector must be nonzero")
        if first < 0:
            content, ints = -content, tuple(-v for v in ints)
        return cls(ints, intercept / content)

    @property
    def r(self) -> int:
        return len(self.normal)

    def poly(self) -> MPoly:
        return linear_form(self.normal, self.intercept)

    def translate(self, k: Sequence[int]) -> "Hyperplane":
        """The hyperplane whose zero set is this one translated by k."""
        shift = sum(v * int(x) for v, x in zip(self.normal, k))
        return Hyperplane(self.normal, self.intercept - shift)

    def text(self) -> str:
        return format_poly(self.poly(), s_names(self.r))

    def structure_flags(self, a: Sequence[int]) -> tuple[bool, bool, bool]:
        """The expected codimension-one shape for twist a: nonnegative
        slopes, strictly positive intercept, and a strictly positive slope
        entry at an index where a is nonzero."""
        return (
            all(v >= 0 for v in self.normal),
            self.intercept > 0,
            any(ai != 0 and v > 0 for ai, v in zip(a, self.normal)),
        )


def linear_form(normal: Sequence[int], intercept: Scalar = 0) -> MPoly:
    r = len(normal)
    terms: dict[tuple[int, ...], Scalar] = {}
    for i, v in enumerate(normal):
        if v:
            e = [0] * r
            e[i] = 1
            terms[tuple(e)] = v
    terms[(0,) * r] = intercept
    return MPoly(r, terms)


def primitive_slopes(r: int, bound: int) -> list[tuple[int, ...]]:
    """Primitive vectors in {0..bound}^r, in ascending graded lex order.

    Not used by the pipeline; kept because bench/tracing.py wraps it by
    name.
    """
    out = []
    for exps in iter_monomials(r, r * bound):
        if all(e <= bound for e in exps) and math.gcd(*exps) == 1:
            out.append(exps)
    return out


def _restrict_to_line(
    terms: dict[tuple[int, ...], int], offset: Sequence[int], direction: Sequence[int]
) -> list[int]:
    """Coefficients (ascending) of t -> p(offset + t*direction)."""
    out = [0] * (max(map(sum, terms)) + 1)
    for e, c in terms.items():
        acc = [c]
        for o, d, k in zip(offset, direction, e):
            for _ in range(k):  # acc *= o + d*t
                acc = [o * x + d * y for x, y in zip(acc + [0], [0] + acc)]
        for j, x in enumerate(acc):
            out[j] += x
    return out


def _divide_linear(
    terms: dict[tuple[int, ...], int], normal: Sequence[int], const: int
) -> dict[tuple[int, ...], int] | None:
    """terms / (normal.s + const) in Z[s] for a primitive form, or None.

    Synthetic division in the s_k with the largest |normal[k]|, over
    Z[other s], from the top s_k-degree down; a step that does not divide
    by normal[k] proves the quotient is not exact.
    """
    k = max(range(len(normal)), key=lambda i: abs(normal[i]))
    a = normal[k]
    rest = [(i, v) for i, v in enumerate(normal) if v and i != k]
    rows: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in terms.items():
        rows.setdefault(e[k], {})[e] = c
    quo: dict[tuple[int, ...], int] = {}
    for d in range(max(rows, default=0), 0, -1):
        below = rows.setdefault(d - 1, {})
        for e, c in rows[d].items():
            if not c:
                continue
            q, r = divmod(c, a)
            if r:
                return None
            qe = e[:k] + (d - 1,) + e[k + 1 :]
            quo[qe] = q
            # the rest of the form times q lands one s_k-degree lower
            if const:
                below[qe] = below.get(qe, 0) - q * const
            for i, v in rest:
                te = qe[:i] + (qe[i] + 1,) + qe[i + 1 :]
                below[te] = below.get(te, 0) - q * v
    return None if any(rows.get(0, {}).values()) else quo


def _top_slopes(top: MPoly) -> list[tuple[int, ...]]:
    """Every nonnegative primitive L with L.s dividing the homogeneous top."""
    r = top.nvars
    if top.is_constant():
        return []
    if r == 1:
        return [(1,)]
    # top(1, s') loses only the factor s_1; L_1 = 0 factors keep intercept 0
    dehom = MPoly(r - 1, {e[1:]: c for e, c in top.terms.items()})
    out = {
        Hyperplane.canonical((h.intercept,) + h.normal, 0).normal
        for h, _ in extract_hyperplanes(dehom)[0]
        if h.intercept >= 0
    }
    if all(e[0] > 0 for e in top.terms):
        out.add((1,) + (0,) * (r - 1))
    return sorted(out, key=grlex_key)


def _divide_out(
    terms: dict[tuple[int, ...], int],
    h: Hyperplane,
    degree: int,
    found: dict[Hyperplane, int],
) -> tuple[dict[tuple[int, ...], int], int]:
    """Divide h's primitive form v*L.s + u out of terms as often as it
    divides, counting each division in found: (quotient, degree left)."""
    u, v = h.intercept.numerator, h.intercept.denominator
    form = [v * x for x in h.normal]
    while degree and (q := _divide_linear(terms, form, u)) is not None:
        terms, degree = q, degree - 1
        found[h] = found.get(h, 0) + 1
    return terms, degree


def extract_hyperplanes(
    p: MPoly, candidates: Iterable[Hyperplane] = ()
) -> tuple[list[tuple[Hyperplane, int]], MPoly]:
    """All hyperplane factors with nonnegative slopes, plus remainder.

    Returns (sorted [(hyperplane, multiplicity)], remainder); the product of
    the factors times the remainder equals p exactly.  Each candidate with
    a nonnegative normal is divided out first, as often as it divides, and
    the slope search runs on what is left.  Factorization in Z[s] is
    unique, so the candidates change the cost, never the answer.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    r = p.nvars
    # p = scale * rem with rem primitive; dividing by v*L.s + u scales by v
    scale, ints = primitive(list(p.terms.values()))
    rem = dict(zip(p.terms, ints))
    found: dict[Hyperplane, int] = {}
    degree = p.total_degree()
    for h in candidates:
        if h not in found and min(h.normal) >= 0:
            rem, degree = _divide_out(rem, h, degree, found)
    # the search's slopes are those of the remainder's top form
    for L in _top_slopes(MPoly(r, rem).top_form()):
        if not degree:
            break
        # deterministic offset giving a nonzero line restriction
        for offset in itertools.product(range(degree + 2), repeat=r):
            coeffs = _restrict_to_line(rem, offset, L)
            if any(coeffs):
                break
        else:  # pragma: no cover - rem != 0
            raise ArithmeticError("no valid line restriction found")
        ll = sum(v * v for v in L)
        lc = sum(v * c for v, c in zip(L, offset))
        for t0 in rational_roots(coeffs):
            rem, degree = _divide_out(rem, Hyperplane(L, -ll * t0 - lc), degree, found)
    for h, m in found.items():
        scale *= h.intercept.denominator ** m
    ordered = sorted(found.items())
    return ordered, MPoly(r, {e: scale * c for e, c in rem.items()})


def check_translation_union(
    hyps_multi: Iterable[Hyperplane],
    hyps_single: Iterable[Hyperplane],
    axis: int,
    l: int,
) -> bool:
    """Zero-locus identity for twist l*e_axis versus twist e_axis.

    The locus for the l-fold twist must be the union of the single-twist
    locus shifted by -l' * e_axis for l' = 0..l-1; shifting a hyperplane
    that way adds l' * normal[axis] to its intercept.
    """
    if l < 1:
        raise ValueError("l must be positive")
    expected = {
        Hyperplane(h.normal, h.intercept + lp * h.normal[axis])
        for h in hyps_single
        for lp in range(l)
    }
    return set(hyps_multi) == expected
