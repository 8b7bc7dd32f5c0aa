"""Torsion-translated codimension-one subtori of the r-torus, in canonical form.

A coset is cut out by one binding condition lambda^v = e^(2*pi*i*theta)
with v a nonzero integer character and theta rational; points are
represented through their angle vectors, so all membership arithmetic
happens in Q/Z and stays exact.  Canonicalization makes the first nonzero
entry of v positive (flipping the sign of theta with it) and reduces theta
into [0, 1), hence equal data always serializes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .hyperplanes import Hyperplane
from .polynomials import primitive


@dataclass(frozen=True, order=True)
class TorusCoset:
    """Canonical binding data lambda^v = e(theta): v nonzero with positive
    lead, theta in Q intersected with [0, 1)."""

    v: tuple[int, ...]
    theta: Fraction

    @classmethod
    def make(cls, v: Sequence[int], theta: Fraction | int) -> "TorusCoset":
        v = tuple(int(x) for x in v)
        theta = Fraction(theta)
        lead = next((x for x in v if x), 0)
        if lead == 0:
            raise ValueError("character must be nonzero")
        if lead < 0:
            v = tuple(-x for x in v)
            theta = -theta
        return cls(v, theta % 1)

    def to_json_dict(self) -> dict:
        t = f"{self.theta.numerator}/{self.theta.denominator}"
        return {"binding": [{"v": list(self.v), "theta": t}]}

    def text(self) -> str:
        lhs = "*".join(
            f"L{i + 1}" + (f"^{c}" if c != 1 else "")
            for i, c in enumerate(self.v)
            if c
        )
        t = self.theta
        return "{" + (f"{lhs} = e(2*pi*i*{t})" if t else f"{lhs} = 1") + "}"


def cosets_of_character(
    v: Sequence[int], theta: Fraction | int = 0
) -> tuple[TorusCoset, ...]:
    """Decompose {lambda : lambda^v == e^(2*pi*i*theta)} into honest cosets.

    For v = g * v' with v' primitive the solution set is the disjoint union
    of the g cosets lambda^v' = e^(2*pi*i*(theta + c)/g), c = 0..g-1.
    """
    content, prim = primitive(v)
    if not any(prim):
        raise ValueError("character must be nonzero")
    g = content.numerator  # v is integral
    theta = Fraction(theta)
    return tuple(TorusCoset.make(prim, (theta + c) / g) for c in range(g))


def exp_image(h: Hyperplane) -> TorusCoset:
    """Image of the hyperplane under alpha -> exp(2*pi*i*alpha).

    L.s + b == 0 maps onto the single coset lambda^L = e(-2*pi*i*b); the
    image only depends on b mod 1, so integer translates agree.
    """
    return TorusCoset.make(h.normal, -h.intercept)


def union_equal(
    left: Iterable[TorusCoset], right: Iterable[TorusCoset]
) -> bool:
    """Equality of finite unions of codimension-one cosets.

    Distinct canonical codimension-one cosets are irreducible of the same
    dimension, so no containments can hide: union equality is set equality
    of canonical forms.
    """
    return set(left) == set(right)


def check_axis_union(
    per_axis: dict[int, Iterable[TorusCoset]],
    combined: Iterable[TorusCoset],
    a: Sequence[int],
) -> bool:
    """Exponential locus of a combined twist versus the union over its axes.

    Keys of per_axis are 0-based indices and must all carry a nonzero twist
    entry; the caller is responsible for dropping invertible f_i.
    """
    for i in per_axis:
        if not 0 <= i < len(a) or a[i] == 0:
            raise ValueError(f"axis {i} does not carry a nonzero twist entry")
    pooled: list[TorusCoset] = []
    for i in sorted(per_axis):
        pooled.extend(per_axis[i])
    return union_equal(combined, pooled)
