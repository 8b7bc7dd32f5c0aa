"""Combinatorics of simple normal crossing resolution data.

A resolution graph records, for each divisor component E_k, the vector
L_k of multiplicities of the pullbacks of f_1..f_r along E_k and the Euler
number chi_k of the open stratum.  From that data the module produces:

* the active component set for a twist a (components where the twisted
  pullback actually vanishes),
* the slope set {primitive L_k},
* the product b-element prod_k prod_{j=1..L_k.a} (L_k.s + j), its
  factors as hyperplanes, and, for pure monomial collections, the
  witnessing operator
  prod_k d_k^(L_k.a), which `solver.verify` confirms exactly,
* the monodromy zeta factorization prod (1 - t^L_k)^chi_k and its
  one-variable specializations,
* combinatorial support loci: unions of torsion cosets lambda^L_k = 1.

The support loci are a combinatorial model read off the resolution data;
they are validated against exponential images of computed zero loci on
the bundled corpus rather than assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul
from typing import Sequence

from .hyperplanes import Hyperplane, linear_form
from .polynomials import MPoly, Record, _setattr, format_poly, grlex_key, primitive
from .solver import BSCertificate
from .torus import TorusCoset, cosets_of_character
from .weyl import GermContext


class EmptySupportError(ValueError):
    """empty-K: no component carries an f_i with nonzero twist."""


def _json_int(v, what: str) -> int:
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _known_keys(obj, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    extra = set(obj) - keys
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {what}")


class GraphComponent(Record):
    __slots__ = ("weights", "chi")
    _values = property(attrgetter(*__slots__))
    weights: tuple[int, ...]
    chi: int

    def _check(self):
        if not self.weights or all(w == 0 for w in self.weights):
            raise ValueError("component must carry at least one f_i")
        if any(type(w) is not int or w < 0 for w in self.weights):
            raise ValueError("multiplicities must be nonnegative ints")
        if type(self.chi) is not int:
            raise ValueError("chi must be an int")


class ResolutionGraph(Record):
    __slots__ = ("r", "components")
    _values = property(attrgetter(*__slots__))
    r: int
    components: tuple[GraphComponent, ...]

    def _check(self):
        if any(len(c.weights) != self.r for c in self.components):
            raise ValueError("every component needs one multiplicity per f_i")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ResolutionGraph":
        """Parse {"r": int, "components": [{"L": [int, ...], "chi": int}]}.

        chi is optional (default 0); JSON integers only, never bool.  Any
        other key, in the graph or in a component, is rejected.
        """
        try:
            _known_keys(data, {"r", "components"}, "resolution graph")
            r = _json_int(data["r"], "'r'")
            comps = data["components"]
            if not isinstance(comps, list):
                raise ValueError("'components' must be a list")
            out = []
            for c in comps:
                _known_keys(c, {"L", "chi"}, "component")
                weights = c["L"]
                if not isinstance(weights, list):
                    raise ValueError("'L' must be a list")
                out.append(GraphComponent(
                    tuple(_json_int(x, "each entry of 'L'") for x in weights),
                    _json_int(c.get("chi", 0), "'chi'"),
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed resolution graph: {exc}") from exc
        return cls(r, tuple(out))

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "components": [
                {"L": list(c.weights), "chi": c.chi} for c in self.components
            ],
        }


def graph_from_exponents(
    exponents: Sequence[Sequence[int]], chis: Sequence[int] | None = None
) -> ResolutionGraph:
    """Graph of a pure monomial collection: one component per coordinate.

    exponents[j][k] is the power of coordinate k in f_j; coordinates that
    appear in no f_j are not divisor components and are dropped.
    """
    r = len(exponents)
    if r == 0:
        raise ValueError("need at least one monomial")
    n = len(exponents[0])
    if any(len(row) != n for row in exponents):
        raise ValueError("ragged exponent matrix")
    comps = []
    for k in range(n):
        weights = tuple(exponents[j][k] for j in range(r))
        if all(w == 0 for w in weights):
            continue
        chi = chis[k] if chis is not None else 0
        comps.append(GraphComponent(weights, chi))
    return ResolutionGraph(r, tuple(comps))


def support_components(graph: ResolutionGraph, a: Sequence[int]) -> tuple[int, ...]:
    """Components carrying some f_i with a_i != 0; error when none do."""
    a = tuple(a)
    if len(a) != graph.r:
        raise ValueError("twist length mismatch")
    out = tuple(
        k
        for k, c in enumerate(graph.components)
        if any(ai and w for ai, w in zip(a, c.weights))
    )
    if not out:
        raise EmptySupportError(
            "empty-K: no component carries an f_i with nonzero twist"
        )
    return out


def slope_set(graph: ResolutionGraph, a: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Primitive multiplicity vectors of the active components, sorted."""
    prims = {
        primitive(graph.components[k].weights)[1]
        for k in support_components(graph, a)
    }
    return tuple(sorted(prims, key=grlex_key))


def snc_b_element(graph: ResolutionGraph, a: Sequence[int]) -> MPoly:
    """prod over active components k of prod_{j=1..L_k.a} (L_k.s + j)."""
    a = tuple(a)
    out = MPoly.const(graph.r, 1)
    for k in support_components(graph, a):
        weights = graph.components[k].weights
        form = linear_form(weights)
        for j in range(1, sum(map(mul, weights, a)) + 1):
            out = out * (form + j)
    return out


def snc_factors(
    graph: ResolutionGraph, a: Sequence[int]
) -> list[tuple[Hyperplane, int]]:
    """The linear factors of snc_b_element(graph, a), read off the L_k: sorted
    (hyperplane, multiplicity) pairs, as extract_hyperplanes returns them."""
    a = tuple(a)
    found: dict[Hyperplane, int] = {}
    for k in support_components(graph, a):
        weights = graph.components[k].weights
        # L_k.s + j is g * (normal.s + j/g): weights are nonnegative
        g = math.gcd(*weights)
        normal = tuple(w // g for w in weights)
        for j in range(1, sum(map(mul, weights, a)) + 1):
            h = Hyperplane(normal, Fraction(j, g))
            found[h] = found.get(h, 0) + 1
    return sorted(found.items())


def b_element_size(graph: ResolutionGraph, a: Sequence[int]) -> tuple[int, int]:
    """Bounds on the terms of snc_b_element(graph, a) and on log2 of its
    height, the sum of its |coefficients|, found without multiplying.

    The product of D linear factors in r variables has at most C(D + r, r)
    terms, and its height is at most the product of the factors' heights
    sum(L_k) + j <= sum(L_k) + L_k.a.  An inactive component has L_k.a = 0.
    """
    log_height = 0
    for c in graph.components:
        la = sum(map(mul, c.weights, a))
        log_height += la * (sum(c.weights) + la).bit_length()
    return math.comb(snc_degree(graph, a) + graph.r, graph.r), log_height


def snc_degree(graph: ResolutionGraph, a: Sequence[int]) -> int:
    """The degree of snc_b_element(graph, a), sum_k L_k.a, found without
    multiplying; it is also the number of factors snc_factors counts."""
    return sum(sum(map(mul, c.weights, a)) for c in graph.components)


def monomial_exponents(ctx: GermContext) -> list[tuple[int, ...]] | None:
    """The x-exponents of each f_i when every f_i is a monomial with
    coefficient 1 (a pure monomial collection), else None."""
    rows = []
    for f in ctx.F:
        if len(f.terms) != 1:
            return None
        ((e, c),) = f.terms.items()
        if c != 1:
            return None
        rows.append(e[: ctx.n])
    return rows


def snc_certificate(
    ctx: GermContext, a: Sequence[int]
) -> tuple[BSCertificate, ResolutionGraph] | None:
    """Closed-form certificate for a pure monomial collection, with the
    collection's graph; None when F is not a pure monomial collection.

    With f_j = prod_k y_k^(l_{j,k}) and c_k = sum_j a_j l_{j,k}, the
    operator prod_k d_k^(c_k) applied to f^(s+a) produces exactly the
    graph b-element times f^s; the returned certificate carries that pair.
    """
    exponents = monomial_exponents(ctx)
    if exponents is None:
        return None
    a = tuple(a)
    graph = graph_from_exponents(exponents)
    b = snc_b_element(graph, a)  # raises on empty support
    beta = tuple(sum(map(mul, a, column)) for column in zip(*exponents))
    return BSCertificate(ctx, a, b, {beta: ctx.one()}), graph


class MonZeta(Record):
    """Formal product prod (1 - t^v)^e over nonzero exponent vectors v.

    The constructor takes any (v, e) pairs and stores them canonically:
    equal v merged, zero exponents dropped, the rest in grlex order of v."""

    __slots__ = ("r", "factors")
    _values = property(attrgetter(*__slots__))
    r: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    def _check(self):
        acc: dict[tuple[int, ...], int] = {}
        for v, e in self.factors:
            v = tuple(v)
            if (
                len(v) != self.r
                or all(x == 0 for x in v)
                or any(type(x) is not int or x < 0 for x in v)
            ):
                raise ValueError(f"bad exponent vector {v}")
            if type(e) is not int:
                raise ValueError(f"exponent of {v} must be an int")
            acc[v] = acc.get(v, 0) + e
        ordered = sorted(acc.items(), key=lambda t: grlex_key(t[0]))
        _setattr(self, "factors", tuple((v, e) for v, e in ordered if e))

    def text(self) -> str:
        if not self.factors:
            return "1"
        names = ["t"] if self.r == 1 else [f"t{i + 1}" for i in range(self.r)]
        parts = []
        for v, e in self.factors:
            mono = format_poly(MPoly.monomial(self.r, v), names)
            parts.append(f"(1 - {mono})^{e}")
        return " * ".join(parts)

    def to_json_dict(self) -> dict:
        return {"factors": [{"v": list(v), "exp": e} for v, e in self.factors]}


def mon_zeta(graph: ResolutionGraph) -> MonZeta:
    return MonZeta(graph.r, ((c.weights, c.chi) for c in graph.components))


def sabbah_specialize(z: MonZeta, m: Sequence[int]) -> MonZeta:
    """Substitute t_i := t^(m_i), m strictly positive: exponent vectors
    contract to v.m and equal contractions merge."""
    m = tuple(m)
    if len(m) != z.r or any(type(x) is not int or x <= 0 for x in m):
        raise ValueError("specialization weights must be positive ints")
    return MonZeta(1, (((sum(a * b for a, b in zip(v, m)),), e) for v, e in z.factors))


def reweight(graph: ResolutionGraph, m: Sequence[int]) -> ResolutionGraph:
    """Graph of the product f_1^(m_1) ... f_r^(m_r): multiplicities contract."""
    m = tuple(m)
    if len(m) != graph.r or any(type(x) is not int or x <= 0 for x in m):
        raise ValueError("weights must be positive ints")
    comps = tuple(
        GraphComponent((sum(w * x for w, x in zip(c.weights, m)),), c.chi)
        for c in graph.components
    )
    return ResolutionGraph(1, comps)


def support_loci(graph: ResolutionGraph, a: Sequence[int]) -> tuple[TorusCoset, ...]:
    """Union of the torsion loci lambda^(L_k) = 1 over the components k
    that carry some f_i with a_i != 0, as sorted canonical cosets."""
    out: set[TorusCoset] = set()
    for k in support_components(graph, a):
        out.update(cosets_of_character(graph.components[k].weights, 0))
    return tuple(sorted(out))


def support_loci_size(graph: ResolutionGraph, a: Sequence[int]) -> tuple[int, int]:
    """The number of cosets support_loci(graph, a) lists, one per c < gcd(L_k)
    for each component k, and the bits of the largest multiplicity, which
    bounds every entry of their characters and angles."""
    comps = [graph.components[k].weights for k in support_components(graph, a)]
    return sum(math.gcd(*w) for w in comps), max(max(w) for w in comps).bit_length()
