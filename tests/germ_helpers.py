"""Builders the tests share: sums of germs, operators written term by
term and applied, and monomial collections."""

import random
from operator import sub

from bsideal.polynomials import MPoly
from bsideal.weyl import (
    GermContext,
    GermElement,
    apply,
    derivative_table,
    partial_derivative,
)


def germ_sum(*germs):
    """The sum of germs, over the frame of their smallest exponents."""
    ctx = germs[0].ctx
    e = tuple(map(min, zip(*(g.exps for g in germs))))
    num = MPoly(ctx.nvars)
    for g in germs:
        num = num + g.num * ctx.f_power(tuple(map(sub, g.exps, e)))
    return GermElement(ctx, num, e)


def weyl_operator(nx, ns, terms):
    """The operator sum c(s) * x^alpha * d^beta over terms, a dict or an
    iterable of ((alpha, beta), c) pairs with c in Q[s] or a scalar;
    repeated keys add.  Each Q_beta collects its x^alpha * c(s), and a
    Q_beta that sums to zero is left out."""
    Q = {}
    for (alpha, beta), c in terms.items() if isinstance(terms, dict) else terms:
        c = c if isinstance(c, MPoly) else MPoly.const(ns, c)
        q = c.padded(nx, 0) * MPoly(nx + ns, {tuple(alpha) + (0,) * ns: 1})
        Q[beta] = Q[beta] + q if beta in Q else q
    return {beta: q for beta, q in Q.items() if not q.is_zero()}


def applied(op, v):
    """op . v through weyl.apply, over a fresh derivative table of v."""
    return apply(op, v, derivative_table(v, partial_derivative))


def monomial_ctx(exps):
    """The context of the monomial collection whose exponent rows are exps."""
    n = len(exps[0])
    return GermContext(["x", "y", "z"][:n], [MPoly(n, {tuple(row): 1}) for row in exps])


def random_monomial_problems(count=10, seed=419):
    """(exps, a) pairs: r <= 2 nonconstant monomials in n <= 3 variables,
    each with a nonzero twist a >= 0."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        r = rng.randint(1, 2)
        n = rng.randint(1, 3)
        exps = [[rng.randint(0, 2) for _ in range(n)] for _ in range(r)]
        for row in exps:
            if all(v == 0 for v in row):
                row[rng.randrange(n)] = 1
        a = tuple(rng.randint(0, 2) for _ in range(r))
        if all(x == 0 for x in a):
            a = (1,) * r
        problems.append((exps, a))
    return problems
