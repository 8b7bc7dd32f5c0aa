"""Weyl algebra operators with polynomial parameters, acting on twisted germs.

Operators live in the algebra generated by x_1..x_n, d_1..d_n over
Q[s_1..s_r]; the s variables are central and d_j x_j = x_j d_j + 1.
Operators are kept normally ordered: P = sum_beta Q_beta(x, s) * d^beta,
with every Q_beta in Q[x, s], the ring that germ numerators live in.

A germ is a formal element

    num * f_1^(s_1+e_1) ... f_r^(s_r+e_r)

with num in Q[x, s] and e in Z^r, for a fixed collection F of nonzero
polynomials f_i in Q[x].  Differentiation acts through the product rule,
so each derivative lowers e_i by exactly one for every f_i it touches, and
f_i is never divided back out of num: a germ is not kept in lowest terms,
and `GermElement.__eq__` compares two germs over their common frame.

`apply` expands P . v in one frame: it writes every d^beta v over the
frame of the smallest exponents once and sums their numerators times
Q_beta.  The d^beta v come from a derivative table of v, which a caller
that has already filled one (the solver, for its own check) passes in.
"""

from __future__ import annotations

from operator import mul, sub
from typing import Callable, Sequence

from .linalg import nullspace
from .polynomials import MPoly, Scalar, format_poly, grlex_key, primitive

Exps = tuple[int, ...]


def lift_s(p: MPoly, n: int) -> MPoly:
    """Embed Q[s] into Q[x, s] (x block first)."""
    r = p.nvars
    return p.embed(n + r, [n + i for i in range(r)])


class WeylOperator:
    """Normally ordered operator sum_beta Q_beta * d^beta, with every Q_beta
    in Q[x, s] (x block first), the ring of germ numerators."""

    __slots__ = ("nx", "ns", "terms")

    def __init__(self, nx: int, ns: int, terms: dict[Exps, MPoly] | None = None):
        clean: dict[Exps, MPoly] = {}
        if terms:
            for beta, q in terms.items():
                if len(beta) != nx:
                    raise ValueError("exponent tuple length mismatch")
                if q.nvars != nx + ns:
                    raise ValueError("Q_beta must live in Q[x, s]")
                if not q.is_zero():
                    clean[tuple(beta)] = q
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WeylOperator is immutable")

    def order(self) -> int:
        """Highest total d-degree; -1 for the zero operator."""
        return max(map(sum, self.terms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return (
            self.nx == other.nx and self.ns == other.ns and self.terms == other.terms
        )


def format_operator(op: WeylOperator, x_names: Sequence[str], s_names: Sequence[str]) -> str:
    """Canonical text form: each Q_beta split into c(s) * x^alpha terms,
    printed by descending (beta, alpha) with d_j as dx etc."""
    n = op.nx
    chunks: list[str] = []
    for beta in sorted(op.terms, key=grlex_key, reverse=True):
        split: dict[Exps, dict[Exps, Scalar]] = {}
        for e, k in op.terms[beta].terms.items():
            split.setdefault(e[:n], {})[e[n:]] = k
        for alpha in sorted(split, key=grlex_key, reverse=True):
            c = MPoly(op.ns, split[alpha])
            factors = []
            for i, k in enumerate(alpha):
                if k:
                    factors.append(x_names[i] if k == 1 else f"{x_names[i]}^{k}")
            for i, k in enumerate(beta):
                if k:
                    nm = f"d{x_names[i]}"
                    factors.append(nm if k == 1 else f"{nm}^{k}")
            ctext = format_poly(c, s_names)
            if not factors:
                body = f"({ctext})" if len(c.terms) > 1 else ctext
            elif c == MPoly.const(op.ns, 1):
                body = "*".join(factors)
            else:
                lead = f"({ctext})" if (len(c.terms) > 1 or ctext.startswith("-")) else ctext
                body = "*".join([lead] + factors)
            chunks.append(body if not chunks else f"+ {body}")
    return " ".join(chunks) or "0"


# ---------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------


class GermContext:
    """Fixed data shared by germs: variable names and the collection F.

    Each f_i is given in Q[x] and must be nonzero; F stores it in the
    combined ring Q[x, s] with the x block first.

    `weights` is a basis of primitive integer vectors of the weight space
    W = {w in Q^n : every f_i is w-homogeneous}, the kernel of the
    differences between the x-exponents of the terms of each f_i.  It is
    empty when no nonzero w grades every f_i (a constant term next to a
    nonconstant one, say), and spans Q^n for a monomial collection.
    """

    __slots__ = ("x_names", "s_vars", "F", "partials", "weights", "_power_cache")

    def __init__(self, x_names: Sequence[str], s_vars: Sequence[str], F: Sequence[MPoly]):
        n, r = len(x_names), len(s_vars)
        if any(f.nvars != n for f in F):
            raise ValueError("f_i must live in Q[x]")
        if any(f.is_zero() for f in F):
            raise ValueError("f_i must be nonzero")
        if len(F) != r:
            raise ValueError("need exactly one f_i per s variable")
        lifted = tuple(f.embed(n + r, list(range(n))) for f in F)
        object.__setattr__(self, "x_names", tuple(x_names))
        object.__setattr__(self, "s_vars", tuple(s_vars))
        object.__setattr__(self, "F", lifted)
        object.__setattr__(
            self,
            "partials",
            tuple(tuple(f.derivative(j) for j in range(n)) for f in lifted),
        )
        diffs = []
        for f in F:
            first, *rest = f.terms
            diffs.extend(
                {j: x - y for j, (x, y) in enumerate(zip(e, first)) if x != y}
                for e in rest
            )
        weights = tuple(
            primitive([w.get(j, 0) for j in range(n)])[1] for w in nullspace(diffs, n)
        )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_power_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GermContext is immutable")

    @property
    def n(self) -> int:
        return len(self.x_names)

    @property
    def r(self) -> int:
        return len(self.s_vars)

    @property
    def nvars(self) -> int:
        return self.n + self.r

    def __eq__(self, other) -> bool:
        if not isinstance(other, GermContext):
            return NotImplemented
        return (
            self.x_names == other.x_names
            and self.s_vars == other.s_vars
            and self.F == other.F
        )

    def weight(self, exps: Sequence[int]) -> tuple[int, ...]:
        """The w-degree w . exps of an x-exponent under each basis vector of W."""
        return tuple(sum(map(mul, w, exps)) for w in self.weights)

    def one(self) -> MPoly:
        return MPoly.const(self.nvars, 1)

    def s_variable(self, i: int) -> MPoly:
        return MPoly.variable(self.nvars, self.n + i)

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

    def invertible_power(self, a: Sequence[int]) -> bool:
        """True when f^a is a nonzero constant (every active f_i constant)."""
        return all(e == 0 or f.is_constant() for f, e in zip(self.F, a))


class GermElement:
    """num * prod f_i^(s_i + exps_i), with num in Q[x, s] and exps in Z^r."""

    __slots__ = ("ctx", "num", "exps")

    def __init__(self, ctx: GermContext, num: MPoly, exps: Sequence[int]):
        exps = tuple(exps)
        if num.nvars != ctx.nvars:
            raise ValueError("numerator must live in the combined ring")
        if len(exps) != ctx.r:
            raise ValueError("exponents must have one entry per f_i")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GermElement is immutable")

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
    loses exactly one power, and the numerator gains the product-rule
    terms; nothing is cancelled."""
    ctx = v.ctx
    active = [i for i in range(ctx.r) if not ctx.partials[i][j].is_zero()]
    num = v.num.derivative(j)
    for i in active:
        num = num * ctx.F[i]
    for i in active:
        term = v.num * ctx.partials[i][j] * (ctx.s_variable(i) + v.exps[i])
        for i2 in active:
            if i2 != i:
                term = term * ctx.F[i2]
        num = num + term
    exps = tuple(e - (i in active) for i, e in enumerate(v.exps))
    return GermElement(ctx, num, exps)


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
    op: WeylOperator,
    v: GermElement,
    germ_for: Callable[[Exps], GermElement] | None = None,
) -> GermElement:
    """Apply a normally ordered operator to a germ: op . v = sum_beta
    Q_beta d^beta v.

    Each d^beta v is brought once to the frame e = min(v.exps, exps of
    every d^beta v), and the sum is the numerator over that frame, not
    reduced further.  germ_for, when given, is a derivative table of v
    (beta -> d^beta v) to take the d^beta v from; otherwise apply builds
    its own.
    """
    ctx = v.ctx
    if op.nx != ctx.n or op.ns != ctx.r:
        raise ValueError("operator shape does not match germ context")
    if germ_for is None:
        germ_for = derivative_table(v, partial_derivative)
    germs = [(germ_for(beta), q) for beta, q in op.terms.items()]
    e = tuple(map(min, zip(v.exps, *(g.exps for g, _ in germs))))
    num = MPoly(ctx.nvars)
    for g, q in germs:
        num = num + q * g.num * ctx.f_power(tuple(map(sub, g.exps, e)))
    return GermElement(ctx, num, e)
