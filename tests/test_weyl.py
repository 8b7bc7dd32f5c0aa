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

from bsideal.cli import format_operator
from bsideal.polynomials import MPoly, iter_monomials, parse_poly
from bsideal.weyl import GermContext, GermElement, derivative_table, partial_derivative
from germ_helpers import applied, germ_sum, weyl_operator


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


def scaled(germ, p):
    """The germ times p, a polynomial in Q[x, s] or a scalar."""
    return GermElement(germ.ctx, germ.num * p, germ.exps)


def test_commutator_dx_x():
    # d(x g) - x d(g) == g on a germ: the Weyl relation d x = x d + 1
    ctx = GermContext(["x"], [parse_poly("x^2 + 1", ["x"])])
    germ = GermElement.power(ctx, (1,))
    dx = weyl_operator(1, 1, {((0,), (1,)): 1})
    x = weyl_operator(1, 1, {((1,), (0,)): 1})
    assert applied(dx, applied(x, germ)) == germ_sum(applied(x, applied(dx, germ)), germ)


def test_format_operator_splits_each_q_beta_by_alpha():
    # Q_beta is printed as its c(s) * x^alpha terms, by descending (beta, alpha)
    sp = lambda t: parse_poly(t, ["s"])  # noqa: E731
    op = weyl_operator(2, 1, {
        ((0, 0), (2, 0)): sp("1/4"),
        ((0, 0), (0, 2)): sp("1/4"),
        ((2, 1), (1, 0)): sp("-s"),
        ((1, 0), (1, 0)): sp("3"),
        ((0, 1), (1, 0)): sp("-2"),
        ((0, 1), (0, 1)): sp("3"),
        ((0, 0), (0, 0)): sp("-6*s - 6"),
    })
    assert format_operator(op, ["x", "y"], ["s"]) == (
        "1/4*dx^2 + 1/4*dy^2 + (-s)*x^2*y*dx + 3*x*dx + (-2)*y*dx + 3*y*dy"
        " + (-6*s - 6)"
    )
    assert format_operator({}, ["x", "y"], ["s"]) == "0"


def test_format_operator_pins_monomial_forms():
    # x^alpha d^beta after a coefficient of 1, a sum, and a negative term
    sp = lambda t: parse_poly(t, ["s"])  # noqa: E731
    op = weyl_operator(2, 1, {
        ((1, 2), (1, 3)): sp("1"),
        ((1, 0), (1, 0)): sp("s + 1"),
        ((0, 0), (0, 1)): sp("-s"),
    })
    assert format_operator(op, ["x", "y"], ["s"]) == (
        "x*y^2*dx*dy^3 + (s + 1)*x*dx + (-s)*dy"
    )


def ctx1():
    return GermContext(["x"], [parse_poly("x", ["x"])])


def test_euler_operator_reads_off_s():
    ctx = ctx1()
    germ = GermElement.power(ctx, (0,))
    euler = weyl_operator(1, 1, {((1,), (1,)): 1})
    s = MPoly.variable(2, 1)
    assert applied(euler, germ) == scaled(germ, s)


def test_partial_derivative_product_rule():
    # d/dx of (x^2+x) f^s for f = x: (2x+1) f^s + s (x+1) f^s
    ctx = ctx1()
    germ = scaled(GermElement.power(ctx, (0,)), parse_poly("x^2 + x", ["x"]).padded(0, 1))
    got = partial_derivative(germ, 0)
    s = MPoly.variable(2, 1)
    x = MPoly.variable(2, 0)
    plain = GermElement.power(ctx, (0,))
    want = germ_sum(scaled(plain, x * 2 + 1), scaled(plain, s * (x + 1)))
    assert got == want


def test_germ_element_checks_its_fields():
    # a germ is a Record: its numerator lives in Q[x, s], its exps has one
    # entry per f_i and is kept as a tuple, and its fields are read-only
    ctx = GermContext(["x"], [parse_poly("x", ["x"]), parse_poly("x + 1", ["x"])])
    with pytest.raises(ValueError, match="^numerator must live in the combined ring$"):
        GermElement(ctx, MPoly.variable(2, 0), (0, 0))
    with pytest.raises(ValueError, match="^exponents must have one entry per f_i$"):
        GermElement(ctx, ctx.one(), (0,))
    germ = GermElement(ctx, ctx.one(), [1, -1])
    assert type(germ.exps) is tuple and germ.exps == (1, -1)
    with pytest.raises(AttributeError):
        germ.exps = (0, 0)


def test_germ_equality_alignment():
    # x * f^s / f == f^s for f = x
    ctx = ctx1()
    plain = GermElement.power(ctx, (0,))
    stretched = GermElement(ctx, MPoly.variable(2, 0), (-1,))
    assert stretched == plain


def test_apply_linearity():
    ctx = GermContext(["x", "y"], [parse_poly(t, ["x", "y"]) for t in ("x + y^2", "y")])
    germ = GermElement.power(ctx, (1, 0))
    rng = random.Random(409)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = ((rng.randint(0, 1), rng.randint(0, 1)),
                   (rng.randint(0, 2), rng.randint(0, 1)))
            terms[key] = MPoly.const(2, Fraction(rng.randint(1, 4)))
        d_y = (((0, 0), (0, 1)), 1)
        p = weyl_operator(2, 2, terms)
        q = weyl_operator(2, 2, [d_y])
        lhs = applied(weyl_operator(2, 2, [*terms.items(), d_y]), germ)
        assert lhs == germ_sum(applied(p, germ), applied(q, germ))


def plain_apply(op, poly, svals):
    """Differentiate an honest polynomial: the no-germ oracle."""
    n = poly.nvars
    nx = n - len(svals)
    acc = MPoly(n)
    for beta, q in op.items():
        term = poly
        for j, bj in enumerate(beta):
            for _ in range(bj):
                term = term.derivative(j)
        for e, c in q.terms.items():
            alpha, sigma = e[:nx], e[nx:]
            mono = MPoly(n, {alpha + (0,) * len(svals): 1})
            cval = value_at(MPoly(len(svals), {sigma: c}), svals)
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
    return weyl_operator(2, 2, terms)


def test_specialize_integer_matches_plain_calculus():
    # random x^alpha * c(s) * d^beta sums with s-dependent c: apply must
    # differentiate first and multiply by x^alpha c(s) after, as plain
    # calculus on the specialized polynomial does
    ctx = GermContext(["x", "y"], [parse_poly(t, ["x", "y"]) for t in ("x^2 + y", "x*y + 1")])
    base = GermElement.power(ctx, (0, 1))
    rng = random.Random(411)
    for _ in range(12):
        op = rand_op(rng, 2, 2)
        got = applied(op, base)
        # each derivative can lower both net exponents, so stay clear of 0
        k = (rng.randint(4, 6), rng.randint(4, 6))
        val = specialize_integer(got, k)
        # the same statement about honest polynomials, in the combined ring
        want = plain_apply(op, ctx.f_power((k[0], k[1] + 1)), k)
        assert val == want


def test_apply_composition_random():
    # applying q then p agrees with plain calculus doing the same, s = k
    ctx = GermContext(["x", "y"], [parse_poly(t, ["x", "y"]) for t in ("x + y^2", "x*y + 1")])
    base = GermElement.power(ctx, (1, 2))
    rng = random.Random(410)
    for _ in range(6):
        p, q = rand_op(rng, 1, 1), rand_op(rng, 1, 1)
        got = applied(p, applied(q, base))
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
        GermContext(["x"], [MPoly.variable(2, 0)])


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
        ctx = GermContext(["x", "y"], F)
        a = tuple(rng.randint(0, 2) for _ in F)
        germ_for = derivative_table(GermElement.power(ctx, a), partial_derivative)
        for beta in [(i, j) for i in range(4) for j in range(4 - i)]:
            touched = [
                sum(b for j, b in enumerate(beta) if not f.derivative(j).is_zero())
                for f in ctx.F
            ]
            assert germ_for(beta).exps == tuple(map(sub, a, touched))


def termwise_derivative(v, j):
    """d/dx_j by the term-by-term product rule: d_j(num) times every f_i
    that depends on x_j, plus one product num * d_j f_i * (s_i + e_i) times
    the other such f_i' for each of them.  The fused rule must give the
    same numerator."""
    ctx = v.ctx
    dj = [f.derivative(j) for f in ctx.F]
    active = [i for i in range(ctx.r) if not dj[i].is_zero()]
    num = v.num.derivative(j)
    for i in active:
        num = num * ctx.F[i]
    for i in active:
        s_i = MPoly.variable(ctx.nvars, ctx.n + i)
        term = v.num * dj[i] * (s_i + v.exps[i])
        for i2 in active:
            if i2 != i:
                term = term * ctx.F[i2]
        num = num + term
    exps = tuple(e - (i in active) for i, e in enumerate(v.exps))
    return GermElement(ctx, num, exps)


def random_numerator(rng, nvars):
    """A random element of Q[x, s] with Fraction coefficients."""
    terms = {
        tuple(rng.randint(0, 2) for _ in range(nvars)):
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(1, 4))
    }
    return MPoly(nvars, terms)


def test_fused_product_rule_matches_termwise():
    # random F from shared factors (repeats, and f_i constant in x_j, seen
    # below), random Fraction numerators, exponents of either sign, and
    # whole derivative chains: partial_derivative gives the numerator and
    # exponents of the term-by-term rule
    rng = random.Random(423)
    seen_repeat = seen_inactive = False
    for _ in range(20):
        F = []
        for _ in range(rng.randint(1, 3)):
            f = parse_poly(rng.choice(("1", "2/3")), ["x", "y"])
            factors = [rng.choice(FACTORS) for _ in range(rng.randint(1, 2))]
            seen_repeat |= len(set(factors)) < len(factors)
            for t in factors:
                f = f * parse_poly(t, ["x", "y"])
            F.append(f)
        ctx = GermContext(["x", "y"], F)
        seen_inactive |= any(
            f.derivative(j).is_zero() for f in ctx.F for j in range(ctx.n)
        )
        num = random_numerator(rng, ctx.nvars)
        exps = tuple(rng.randint(-2, 2) for _ in F)
        v = GermElement(ctx, num, exps)
        for j in range(ctx.n):
            got, want = partial_derivative(v, j), termwise_derivative(v, j)
            assert got.exps == want.exps and got.num == want.num
        a = tuple(rng.randint(0, 2) for _ in F)
        for start, order in ((GermElement.power(ctx, a), 3), (v, 2)):
            fused = derivative_table(start, partial_derivative)
            termwise = derivative_table(start, termwise_derivative)
            for beta in iter_monomials(ctx.n, order):
                got, want = fused(beta), termwise(beta)
                assert got.exps == want.exps and got.num == want.num
    assert seen_repeat and seen_inactive
