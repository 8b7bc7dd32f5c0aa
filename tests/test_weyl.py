"""Operators acting on twisted germs.

The independent oracle: a certificate statement specialized at integer
exponents is a statement about honest polynomials, checkable with plain
partial derivatives and no operator machinery.
"""

import math
import random
from fractions import Fraction
from operator import sub

import pytest

from bsideal.polynomials import MPoly, parse_poly, s_names
from bsideal.weyl import (
    GermContext,
    GermElement,
    WeylOperator,
    apply,
    derivative_table,
    lift_s,
    partial_derivative,
)


def value_at(p, point):
    """p evaluated at a rational point."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for v, k in zip(point, e):
            c *= Fraction(v) ** k
        total += c
    return total


def specialize_integer(v, k):
    """The germ at s = k (integer point) as a polynomial in the combined ring.

    Requires k + exps >= 0 so the twisted powers stay polynomial.
    """
    ctx = v.ctx
    net = tuple(ki + e for ki, e in zip(k, v.exps))
    if any(e < 0 for e in net):
        raise ValueError("specialization leaves the polynomial ring")
    num: dict = {}
    for e, c in v.num.terms.items():
        xe = e[: ctx.n] + (0,) * len(k)
        num[xe] = num.get(xe, 0) + c * math.prod(ki**ei for ki, ei in zip(k, e[ctx.n :]))
    return MPoly(ctx.nvars, num) * ctx.f_power(net)


def germ_sum(*germs):
    """The sum of germs, over the frame of their smallest exponents."""
    ctx = germs[0].ctx
    e = tuple(map(min, zip(*(g.exps for g in germs))))
    num = MPoly(ctx.nvars)
    for g in germs:
        num = num + g.num * ctx.f_power(tuple(map(sub, g.exps, e)))
    return GermElement(ctx, num, e)


def scaled(germ, p):
    """The germ times p, a polynomial in Q[x, s] or a scalar."""
    return GermElement(germ.ctx, germ.num * p, germ.exps)


def test_commutator_dx_x():
    # d(x g) - x d(g) == g on a germ: the Weyl relation d x = x d + 1
    ctx = GermContext(["x"], ["s"], [parse_poly("x^2 + 1", ["x"])])
    germ = GermElement.power(ctx, (1,))
    dx = WeylOperator.d_power(1, 1, (1,))
    x = WeylOperator(1, 1, {((1,), (0,)): MPoly.const(1, 1)})
    assert apply(dx, apply(x, germ)) == germ_sum(apply(x, apply(dx, germ)), germ)


def test_order():
    op = WeylOperator(1, 1, {((2,), (3,)): MPoly.const(1, 1)})
    assert op.order() == 3
    assert WeylOperator(1, 1, {((0,), (0,)): MPoly.const(1, 5)}).order() == 0
    assert WeylOperator(1, 1).order() == -1


def ctx1():
    return GermContext(["x"], ["s"], [parse_poly("x", ["x"])])


def test_euler_operator_reads_off_s():
    ctx = ctx1()
    germ = GermElement.power(ctx, (0,))
    euler = WeylOperator(1, 1, {((1,), (1,)): MPoly.const(1, 1)})
    s = lift_s(MPoly.variable(1, 0), 1)
    assert apply(euler, germ) == scaled(germ, s)


def test_partial_derivative_product_rule():
    # d/dx of (x^2+x) f^s for f = x: (2x+1) f^s + s (x+1) f^s
    ctx = ctx1()
    germ = scaled(GermElement.power(ctx, (0,)), parse_poly("x^2 + x", ["x"]).embed(2, (0,)))
    got = partial_derivative(germ, 0)
    s = MPoly.variable(2, 1)
    x = MPoly.variable(2, 0)
    plain = GermElement.power(ctx, (0,))
    want = germ_sum(scaled(plain, x * 2 + 1), scaled(plain, s * (x + 1)))
    assert got == want


def test_germ_equality_alignment():
    # x * f^s / f == f^s for f = x
    ctx = ctx1()
    plain = GermElement.power(ctx, (0,))
    stretched = GermElement(ctx, MPoly.variable(2, 0), (-1,))
    assert stretched == plain


def test_apply_linearity():
    ctx = GermContext(["x", "y"], ["s1", "s2"],
                      [parse_poly(t, ["x", "y"]) for t in ("x + y^2", "y")])
    germ = GermElement.power(ctx, (1, 0))
    rng = random.Random(409)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = ((rng.randint(0, 1), rng.randint(0, 1)),
                   (rng.randint(0, 2), rng.randint(0, 1)))
            terms[key] = MPoly.const(2, Fraction(rng.randint(1, 4)))
        p = WeylOperator(2, 2, terms)
        q = WeylOperator.d_power(2, 2, (0, 1))
        lhs = apply(p + q, germ)
        assert lhs == germ_sum(apply(p, germ), apply(q, germ))


def plain_apply(op, poly, svals):
    """Differentiate an honest polynomial: the no-germ oracle."""
    n = poly.nvars
    acc = MPoly(n)
    for (alpha, beta), c in op.terms.items():
        term = poly
        for j, bj in enumerate(beta):
            for _ in range(bj):
                term = term.derivative(j)
        mono = MPoly.monomial(n, tuple(alpha) + (0,) * (n - len(alpha)))
        cval = value_at(c, svals)
        acc = acc + term * mono * cval
    return acc


def rand_op(rng, x_max, d_max):
    """Random sum of x^alpha * c(s) * d^beta terms in two variables."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = ((rng.randint(0, x_max), rng.randint(0, 1)),
               (rng.randint(0, d_max), rng.randint(0, d_max)))
        c = MPoly(2, {(rng.randint(0, 2), rng.randint(0, 1)):
                      Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(rng.randint(1, 3))})
        terms[key] = c if not c.is_zero() else MPoly.const(2, 1)
    return WeylOperator(2, 2, terms)


def test_specialize_integer_matches_plain_calculus():
    # random x^alpha * c(s) * d^beta sums with s-dependent c: apply must
    # differentiate first and multiply by x^alpha c(s) after, as plain
    # calculus on the specialized polynomial does
    ctx = GermContext(["x", "y"], ["s1", "s2"],
                      [parse_poly(t, ["x", "y"]) for t in ("x^2 + y", "x*y + 1")])
    base = GermElement.power(ctx, (0, 1))
    rng = random.Random(411)
    for _ in range(12):
        op = rand_op(rng, 2, 2)
        got = apply(op, base)
        # each derivative can lower both net exponents, so stay clear of 0
        k = (rng.randint(4, 6), rng.randint(4, 6))
        val = specialize_integer(got, k)
        # the same statement about honest polynomials, in the combined ring
        want = plain_apply(op, ctx.f_power((k[0], k[1] + 1)), k)
        assert val == want


def test_apply_composition_random():
    # applying q then p agrees with plain calculus doing the same, s = k
    ctx = GermContext(["x", "y"], ["s1", "s2"],
                      [parse_poly(t, ["x", "y"]) for t in ("x + y^2", "x*y + 1")])
    base = GermElement.power(ctx, (1, 2))
    rng = random.Random(410)
    for _ in range(6):
        p, q = rand_op(rng, 1, 1), rand_op(rng, 1, 1)
        got = apply(p, apply(q, base))
        k = (rng.randint(4, 5), rng.randint(4, 5))
        plain = ctx.f_power((k[0] + 1, k[1] + 2))
        want = plain_apply(p, plain_apply(q, plain, k), k)
        assert specialize_integer(got, k) == want


def test_specialize_integer_rejects_negative_net():
    ctx = ctx1()
    germ = GermElement(ctx, MPoly.const(2, 1), (-2,))
    with pytest.raises(ValueError):
        specialize_integer(germ, (1,))


def test_germ_twist_absorption():
    # f^(s+1) and f * f^s are the same germ
    ctx = ctx1()
    shifted = GermElement.power(ctx, (1,))
    plain = scaled(GermElement.power(ctx, (0,)), MPoly.variable(2, 0))
    assert shifted == plain
    assert germ_sum(shifted, plain) == scaled(plain, 2)


def test_context_rejects_f_outside_qx():
    # an f_i in Q[x, s] (here the variable x of Q[x, s]) is refused
    with pytest.raises(ValueError):
        GermContext(["x"], ["s"], [MPoly.variable(2, 0)])


FACTORS = ("x", "y", "x + y", "x*y + 1", "x^2 - y")


def test_derivative_table_lowers_each_touched_exponent_once():
    # random F built from shared factors, repeated ones included: d^beta of
    # f^(s+a) has exps_i = a_i - sum of beta_j over the x_j that f_i depends
    # on, since a derivative never cancels an f_i back out of the numerator
    rng = random.Random(412)
    for _ in range(12):
        F = []
        for _ in range(rng.randint(1, 3)):
            f = parse_poly("1", ["x", "y"])
            for _ in range(rng.randint(1, 2)):
                f = f * parse_poly(rng.choice(FACTORS), ["x", "y"])
            F.append(f)
        ctx = GermContext(["x", "y"], s_names(len(F)), F)
        a = tuple(rng.randint(0, 2) for _ in F)
        germ_for = derivative_table(GermElement.power(ctx, a), partial_derivative)
        for beta in [(i, j) for i in range(4) for j in range(4 - i)]:
            touched = [
                sum(b for b, df in zip(beta, ctx.partials[i]) if not df.is_zero())
                for i in range(ctx.r)
            ]
            assert germ_for(beta).exps == tuple(map(sub, a, touched))
