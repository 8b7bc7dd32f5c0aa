"""Builders the tests share: sums of germs, and operators written term by term."""

from operator import sub

from bsideal.polynomials import MPoly
from bsideal.weyl import GermElement, WeylOperator, lift_s


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
    repeated keys add.  Each Q_beta collects its x^alpha * c(s)."""
    Q = {}
    for (alpha, beta), c in terms.items() if isinstance(terms, dict) else terms:
        c = c if isinstance(c, MPoly) else MPoly.const(ns, c)
        q = lift_s(c, nx) * MPoly.monomial(nx + ns, tuple(alpha) + (0,) * ns)
        Q[beta] = Q[beta] + q if beta in Q else q
    return WeylOperator(nx, ns, Q)
