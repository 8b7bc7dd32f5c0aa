"""Weyl algebra operators with polynomial parameters, acting on twisted germs.

Operators live in the algebra generated by x_1..x_n, d_1..d_n over
Q[s_1..s_r]; the s variables are central and d_j x_j = x_j d_j + 1.
Operators are kept normally ordered: P = sum_beta Q_beta(x, s) * d^beta,
with every Q_beta in Q[x, s], the ring that germ numerators live in, and
stored as that map {beta: Q_beta} (`Operator`).

A germ is a formal element

    num * f_1^(s_1+e_1) ... f_r^(s_r+e_r)

with num in Q[x, s] and e in Z^r, for a fixed collection F of nonzero
polynomials f_i in Q[x].  Differentiation acts through the product rule,
so each derivative lowers e_i by exactly one for every f_i it touches, and
f_i is never divided back out of num: a germ is not kept in lowest terms,
and `GermElement.__eq__` compares two germs over their common frame.

The product rule for d/dx_j is fused into one accumulation pass per
derivative:

    num' = d_j(num) * Pi_j + num * S_j,   S_j = sum_i G_ij * (s_i + e_i),

where i runs over the f_i that depend on x_j, Pi_j is their product and
G_ij = d_j f_i * prod_{i' != i} f_i' over the same i'.  Pi_j, the G_ij and
sum_i G_ij * s_i are built from products only, once per context and x_j on
first use, and kept on the context (`GermContext.product_rule`).  Each
derivative sums S_j's terms, then adds every term of d_j(num) * Pi_j and
num * S_j into one dict of packed keys (see `polynomials`), with no
polynomial built in between.

`apply` expands P . v in one frame: it writes every d^beta v over the
frame of the smallest exponents once and sums their numerators times
Q_beta.  The d^beta v come from a derivative table of v that the caller
passes in; only the solver builds one, through `solver.partial_derivative`.
"""

from __future__ import annotations

from operator import attrgetter, mul, sub
from typing import Callable, Sequence

from .linalg import nullspace
from .polynomials import MPoly, Record, Scalar, _setattr, _width, iter_monomials, primitive

Exps = tuple[int, ...]


# A normally ordered operator sum_beta Q_beta * d^beta, as the map
# {beta: Q_beta}: each beta has length n, and each Q_beta is a nonzero
# MPoly in Q[x, s] (x block first), the ring of germ numerators.
Operator = dict[Exps, MPoly]


# ---------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------


class GermContext(Record):
    """Fixed data shared by germs: variable names and the collection F.

    Each f_i is given in Q[x] and must be nonzero; F stores it in the
    combined ring Q[x, s] with the x block first, and f_i^(s_i + e_i)
    carries the i-th of the r = len(F) parameters.

    `weights` is a basis of primitive integer vectors of the weight space
    W = {w in Q^n : every f_i is w-homogeneous}, the kernel of the
    differences between the x-exponents of the terms of each f_i.  It is
    empty when no nonzero w grades every f_i (a constant term next to a
    nonconstant one, say), and spans Q^n for a monomial collection.
    `grading(x_degree, order)` groups the x-monomials and d-monomials of a
    solver box by w-degree; it is built on first use and kept in
    `_grading_cache`, so the twists solved in one box share it.

    Two contexts are equal when their x names and F are: the weights
    follow from those, and the three caches (`f_power`, `product_rule` and
    `grading`) stay out.
    """

    __slots__ = ("x_names", "F", "weights", "_power_cache", "_rule_cache", "_grading_cache")
    _values = property(attrgetter("x_names", "F"))

    def __init__(self, x_names: Sequence[str], F: Sequence[MPoly]):
        n, r = len(x_names), len(F)
        if any(f.nvars != n for f in F):
            raise ValueError("f_i must live in Q[x]")
        if any(f.is_zero() for f in F):
            raise ValueError("f_i must be nonzero")
        diffs = []
        for f in F:
            if len(f._packed) == 1:  # a monomial adds no difference
                continue
            first, *rest = f.terms
            diffs.extend(
                {j: x - y for j, (x, y) in enumerate(zip(e, first)) if x != y}
                for e in rest
            )
        weights = tuple(
            primitive([w.get(j, 0) for j in range(n)])[1] for w in nullspace(diffs, n)
        )
        lifted = tuple(f.padded(0, r) for f in F)
        super().__init__(tuple(x_names), lifted, weights, {}, {}, {})

    @property
    def n(self) -> int:
        return len(self.x_names)

    @property
    def r(self) -> int:
        return len(self.F)

    @property
    def nvars(self) -> int:
        return self.n + self.r

    def weight(self, exps: Sequence[int]) -> tuple[int, ...]:
        """The w-degree w . exps of an x-exponent under each basis vector of W."""
        return tuple(sum(map(mul, w, exps)) for w in self.weights)

    def grading(
        self, x_degree: int, order: int
    ) -> tuple[dict[tuple[int, ...], list[Exps]], list[tuple[Exps, tuple[int, ...]]]]:
        """The weight grading of a solver box, built on first use: the
        x-monomials of degree <= x_degree grouped by w-degree, in graded
        lex within each group, and each d-monomial of order <= order with
        its w-degree.  Every twist solved in that box on this context
        shares it."""
        key = (x_degree, order)
        grading = self._grading_cache.get(key)
        if grading is None:
            by_weight: dict[tuple[int, ...], list[Exps]] = {}
            for alpha in iter_monomials(self.n, x_degree):
                by_weight.setdefault(self.weight(alpha), []).append(alpha)
            betas = [(beta, self.weight(beta)) for beta in iter_monomials(self.n, order)]
            grading = self._grading_cache[key] = (by_weight, betas)
        return grading

    def one(self) -> MPoly:
        return MPoly.const(self.nvars, 1)

    def f_power(self, exps: Sequence[int]) -> MPoly:
        """Product f_1^e_1 ... f_r^e_r for e >= 0."""
        key = tuple(exps)
        if any(e < 0 for e in key):
            raise ValueError("negative f power")
        cached = self._power_cache.get(key)
        if cached is None:
            cached = self.one()
            for f, e in zip(self.F, key):
                cached = cached * f**e
            self._power_cache[key] = cached
        return cached

    def product_rule(
        self, j: int
    ) -> tuple[tuple[int, ...], MPoly, tuple[MPoly, ...], MPoly]:
        """The pieces of d/dx_j on a germ, built on first use from the
        d_j f_i: the i whose f_i depends on x_j, their product Pi_j, each
        G_ij = d_j f_i times the product of the other such f_i', and
        sum_i G_ij * s_i."""
        rule = self._rule_cache.get(j)
        if rule is None:
            dj = [f.derivative(j) for f in self.F]
            active = tuple(i for i, d in enumerate(dj) if not d.is_zero())
            pi = self.one()
            for i in active:
                pi = pi * self.F[i]
            G = []
            gs = MPoly(self.nvars)
            for i in active:
                g = dj[i]
                for i2 in active:
                    if i2 != i:
                        g = g * self.F[i2]
                G.append(g)
                gs = gs + g * MPoly.variable(self.nvars, self.n + i)
            rule = self._rule_cache[j] = (active, pi, tuple(G), gs)
        return rule

    def invertible_power(self, a: Sequence[int]) -> bool:
        """True when f^a is a nonzero constant (every active f_i constant)."""
        return all(e == 0 or f.is_constant() for f, e in zip(self.F, a))


class GermElement(Record):
    """num * prod f_i^(s_i + exps_i), with num in Q[x, s] and exps in Z^r."""

    __slots__ = ("ctx", "num", "exps")
    ctx: GermContext
    num: MPoly
    exps: Exps

    def _check(self):
        exps = tuple(self.exps)
        if self.num.nvars != self.ctx.nvars:
            raise ValueError("numerator must live in the combined ring")
        if len(exps) != self.ctx.r:
            raise ValueError("exponents must have one entry per f_i")
        _setattr(self, "exps", exps)

    @classmethod
    def power(cls, ctx: GermContext, twist: Sequence[int]) -> "GermElement":
        """The generator f^(s + twist)."""
        return cls(ctx, ctx.one(), twist)

    def __eq__(self, other) -> bool:
        """Equal numerators once both are written over the common frame."""
        if not isinstance(other, GermElement):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("germs attached to different collections")
        e = tuple(map(min, self.exps, other.exps))
        p = self.num * self.ctx.f_power(tuple(map(sub, self.exps, e)))
        q = other.num * self.ctx.f_power(tuple(map(sub, other.exps, e)))
        return p == q


def partial_derivative(v: GermElement, j: int) -> GermElement:
    """d/dx_j through the twisted product: every f_i that depends on x_j
    loses exactly one power, and the numerator becomes
    d_j(num) * Pi_j + num * sum_i G_ij * (s_i + e_i), with Pi_j and the
    G_ij taken from the context's cache (`GermContext.product_rule`);
    nothing is cancelled.  Both products accumulate into one dict of
    packed keys, at a width that holds deg(num) + deg(Pi_j)."""
    ctx = v.ctx
    active, pi, G, gs = ctx.product_rule(j)
    num, n = v.num, ctx.nvars
    # deg(G_ij * s_i) <= deg(Pi_j), so every term is of degree at most deg
    deg = num._deg + pi._deg
    w = _width(deg)
    S = dict(gs._at(w))
    for i, g in zip(active, G):
        if e := v.exps[i]:
            for k, c in g._at(w).items():
                S[k] = S.get(k, 0) + c * e
    S = [(k, c) for k, c in S.items() if c]
    pi = list(pi._at(w).items())
    shift = w * (n - 1 - j)
    unit, mask = 1 << (n * w) | 1 << shift, (1 << w) - 1
    acc: dict[int, Scalar] = {}
    get = acc.get
    for k, c in num._at(w).items():
        if e := k >> shift & mask:  # d_j(c x^k) = c e x^(k - unit)
            k0, c0 = k - unit, c * e
            for kp, cp in pi:
                key = k0 + kp
                acc[key] = get(key, 0) + c0 * cp
        for ks, cs in S:
            key = k + ks
            acc[key] = get(key, 0) + c * cs
    exps = tuple(e - (i in active) for i, e in enumerate(v.exps))
    return GermElement(ctx, MPoly._raw(n, {k: c for k, c in acc.items() if c}, w, deg), exps)


def derivative_table(
    v: GermElement, differentiate: Callable[[GermElement, int], GermElement]
) -> Callable[[Exps], GermElement]:
    """beta -> d^beta v, memoized.  d^beta v is taken as the derivative in
    the first variable where beta is positive of d^(beta minus that unit) v,
    so betas with a common prefix share their derivative chain."""
    table = {(0,) * v.ctx.n: v}

    # iterative: a closure that called itself would be a reference cycle,
    # keeping the table alive until the cyclic collector runs
    def germ_for(beta: Exps) -> GermElement:
        chain = []
        while beta not in table:
            j = next(i for i, e in enumerate(beta) if e > 0)
            chain.append((beta, j))
            beta = beta[:j] + (beta[j] - 1,) + beta[j + 1 :]
        g = table[beta]
        for beta, j in reversed(chain):
            g = table[beta] = differentiate(g, j)
        return g

    return germ_for


def apply(
    op: Operator, v: GermElement, germ_for: Callable[[Exps], GermElement]
) -> GermElement:
    """Apply a normally ordered operator to a germ: op . v = sum_beta
    Q_beta d^beta v, with each d^beta v taken from germ_for, a derivative
    table of v (beta -> d^beta v).

    Each d^beta v is brought once to the frame e = min(v.exps, exps of
    every d^beta v), and the sum is the numerator over that frame, not
    reduced further.
    """
    ctx = v.ctx
    germs = [(germ_for(beta), q) for beta, q in op.items()]
    e = tuple(map(min, zip(v.exps, *(g.exps for g, _ in germs))))
    num = MPoly(ctx.nvars)
    for g, q in germs:
        num = num + q * g.num * ctx.f_power(tuple(map(sub, g.exps, e)))
    return GermElement(ctx, num, e)
