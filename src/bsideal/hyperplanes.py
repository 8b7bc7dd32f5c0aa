"""Affine hyperplanes split off the zero locus of parameter polynomials.

`extract_hyperplanes` peels every linear factor L.s + b with L a
nonnegative primitive integer slope (entries of any size) and b rational,
returning factors with multiplicity plus the unfactored remainder; the
product always reconstructs the input exactly.  Factors whose slope has
entries of both signs stay in the remainder.

Candidate slopes are the linear factors L.s of the top-degree form T,
found by recursion on the number of variables: L.s with L_1 != 0 divides
T exactly when L_1 + L'.s' divides T(1, s'), an affine factor in one
variable fewer.  Candidate intercepts come from rational roots of the
restriction of the polynomial to a deterministic line in direction L;
they over-generate and every candidate is confirmed by exact division,
so the factorization is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .polynomials import MPoly, Scalar, format_poly, grlex_key, iter_monomials, s_names
from .ratroots import rational_roots


@dataclass(frozen=True)
class Hyperplane:
    """L.s + intercept == 0 with L primitive integer, first nonzero entry positive."""

    normal: tuple[int, ...]
    intercept: Fraction

    def __post_init__(self):
        if not self.normal or all(v == 0 for v in self.normal):
            raise ValueError("normal vector must be nonzero")
        g = 0
        for v in self.normal:
            g = math.gcd(g, v)
        first = next(v for v in self.normal if v)
        if g != 1 or first < 0:
            raise ValueError("normal vector must be primitive with positive lead")
        object.__setattr__(self, "intercept", Fraction(self.intercept))

    @classmethod
    def canonical(cls, normal: Sequence[Scalar], intercept: Scalar) -> "Hyperplane":
        """Scale rational (L, b) to the primitive normal form."""
        fracs = [Fraction(v) for v in normal]
        if all(v == 0 for v in fracs):
            raise ValueError("normal vector must be nonzero")
        lcm = 1
        for v in fracs:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        ints = [int(v * lcm) for v in fracs]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        scale = Fraction(lcm, g)
        first = next(v for v in ints if v)
        if first < 0:
            g = -g
            scale = -scale
        return cls(tuple(v // g for v in ints), Fraction(intercept) * scale)

    @property
    def r(self) -> int:
        return len(self.normal)

    def poly(self) -> MPoly:
        return linear_form(self.normal, self.intercept)

    def translate(self, k: Sequence[int]) -> "Hyperplane":
        """The hyperplane whose zero set is this one translated by k."""
        shift = sum(v * int(x) for v, x in zip(self.normal, k))
        return Hyperplane(self.normal, self.intercept - shift)

    def sort_key(self) -> tuple:
        return (self.normal, self.intercept)

    def text(self) -> str:
        return format_poly(self.poly(), s_names(self.r))


def linear_form(normal: Sequence[int], intercept: Scalar = 0) -> MPoly:
    r = len(normal)
    terms: dict[tuple[int, ...], Scalar] = {}
    for i, v in enumerate(normal):
        if v:
            e = [0] * r
            e[i] = 1
            terms[tuple(e)] = v
    c = Fraction(intercept)
    if c:
        terms[(0,) * r] = c
    return MPoly(r, terms)


def primitive_slopes(r: int, bound: int) -> list[tuple[int, ...]]:
    """Primitive vectors in {0..bound}^r, sorted by graded lex.

    Not used by the pipeline; kept because bench/tracing.py wraps it by
    name.
    """
    out = []
    for exps in iter_monomials(r, r * bound):
        if all(e <= bound for e in exps) and any(exps):
            g = 0
            for e in exps:
                g = math.gcd(g, e)
            if g == 1:
                out.append(exps)
    return sorted(out, key=grlex_key)


def _offsets(r: int, limit: int) -> Iterator[tuple[int, ...]]:
    for exps in iter_monomials(r, r * limit):
        if all(e <= limit for e in exps):
            yield exps


def _restrict_to_line(
    p: MPoly, offset: Sequence[int], direction: Sequence[int]
) -> list[Fraction]:
    """Coefficients (ascending) of t -> p(offset + t*direction)."""
    t = MPoly.variable(1, 0)
    reps = [MPoly.const(1, c) + int(d) * t for c, d in zip(offset, direction)]
    q = p.compose(reps)
    coeffs = [Fraction(0)] * (q.total_degree() + 1 if not q.is_zero() else 1)
    for e, c in q.terms.items():
        coeffs[e[0]] = c
    return coeffs


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


def extract_hyperplanes(p: MPoly) -> tuple[list[tuple[Hyperplane, int]], MPoly]:
    """All hyperplane factors with nonnegative slopes, plus remainder.

    Returns (sorted [(hyperplane, multiplicity)], remainder); the product of
    the factors times the remainder equals p exactly.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    r = p.nvars
    rem = p
    found: dict[Hyperplane, int] = {}
    for L in _top_slopes(p.top_form()):
        if rem.is_constant():
            break
        # deterministic offset giving a nonzero line restriction
        coeffs = None
        for offset in _offsets(r, rem.total_degree() + 1):
            coeffs = _restrict_to_line(rem, offset, L)
            if any(coeffs):
                break
        if coeffs is None or not any(coeffs):  # pragma: no cover - rem != 0
            raise ArithmeticError("no valid line restriction found")
        ll = sum(v * v for v in L)
        lc = sum(v * c for v, c in zip(L, offset))
        for t0 in rational_roots(coeffs):
            b = -ll * t0 - lc
            h = Hyperplane(L, b)
            hp = h.poly()
            while True:
                q = rem.divide_exact(hp)
                if q is None:
                    break
                rem = q
                found[h] = found.get(h, 0) + 1
    ordered = sorted(found.items(), key=lambda t: t[0].sort_key())
    return ordered, rem


@dataclass(frozen=True)
class HyperplaneVerdict:
    hyperplane: Hyperplane
    slopes_nonnegative: bool
    intercept_positive: bool
    has_active_index: bool

    @property
    def passes(self) -> bool:
        return self.slopes_nonnegative and self.intercept_positive and self.has_active_index


@dataclass(frozen=True)
class StructureReport:
    """Per-hyperplane verdicts for the expected codimension-one shape:

    nonnegative slopes, strictly positive intercept, and at least one
    strictly positive slope entry at an index where the twist is nonzero.
    """

    verdicts: tuple[HyperplaneVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passes for v in self.verdicts)


def structure_report(
    hyperplanes: Iterable[Hyperplane], a: Sequence[int]
) -> StructureReport:
    verdicts = []
    for h in sorted(hyperplanes, key=Hyperplane.sort_key):
        verdicts.append(
            HyperplaneVerdict(
                hyperplane=h,
                slopes_nonnegative=all(v >= 0 for v in h.normal),
                intercept_positive=h.intercept > 0,
                has_active_index=any(
                    ai != 0 and v > 0 for ai, v in zip(a, h.normal)
                ),
            )
        )
    return StructureReport(tuple(verdicts))


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
