"""Bounded functional-equation solver against hand-checkable classics."""

import importlib.util
import itertools
import os
import random
import sys
from fractions import Fraction
from operator import add, ge, mul

import pytest

from bsideal import linalg, solver, weyl
from bsideal.cli import corpus_paths, load_specs
from bsideal.hyperplanes import Hyperplane, extract_hyperplanes
from bsideal.polynomials import MPoly, format_poly, grlex_key, iter_monomials, parse_poly, s_names
from bsideal.solver import (
    BSCertificate,
    InvertibleTwistError,
    SolveBounds,
    SolveCapExceeded,
    find_bs_pair,
    sample_ideal,
    verify,
)
from bsideal.weyl import (
    GermContext,
    GermElement,
    WeylOperator,
    derivative_table,
    partial_derivative,
)


def make_ctx(names, f_texts):
    return GermContext(names, s_names(len(f_texts)), [parse_poly(t, list(names)) for t in f_texts])


def sp(text, r=1):
    return parse_poly(text, s_names(r))


def test_classic_single_x():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    assert cert is not None
    assert cert.b == sp("s + 1")
    assert cert.P == WeylOperator.d_power(1, 1, (1,))
    assert verify(cert)


def test_classic_single_x_twist_two():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (2,), SolveBounds(2, 0, 0, 2))
    assert cert.b == sp("(s + 1)*(s + 2)")
    assert cert.P == WeylOperator.d_power(1, 1, (2,))


def test_classic_sum_of_squares():
    ctx = make_ctx(["x", "y"], ["x^2 + y^2"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(2, 0, 0, 2))
    assert cert.b == sp("(s + 1)^2")
    quarter = Fraction(1, 4)
    laplacian_over_4 = (
        WeylOperator.d_power(2, 1, (2, 0)).scale(quarter)
        + WeylOperator.d_power(2, 1, (0, 2)).scale(quarter)
    )
    assert cert.P == laplacian_over_4


def test_classic_normal_crossing_pair():
    ctx = make_ctx(["x", "y"], ["x", "y"])
    cert = find_bs_pair(ctx, (1, 1), SolveBounds(2, 0, 0, 2))
    assert cert.b == sp("(s1 + 1)*(s2 + 1)", r=2)
    assert cert.P == WeylOperator.d_power(2, 2, (1, 1))


def test_minimal_b_preferred_within_larger_bounds():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 1, 2))
    assert cert.b == sp("s + 1")
    cert = find_bs_pair(ctx, (1,), SolveBounds(2, 1, 1, 3))
    assert cert.b == sp("s + 1")


def test_cusp_b_function():
    # x^3: roots at -1, -1/3, -2/3
    ctx = make_ctx(["x"], ["x^3"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(3, 0, 0, 3))
    want = sp("(s + 1)*(s + 1/3)*(s + 2/3)")
    assert cert.b == want
    # s + 1 divides b: b(-1) = 0
    assert sum(c * (-1) ** e for (e,), c in cert.b.terms.items()) == 0
    assert verify(cert)


def test_twist_shift_identity_for_x():
    ctx = make_ctx(["x"], ["x"])
    b1 = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1)).b
    b2 = find_bs_pair(ctx, (2,), SolveBounds(2, 0, 0, 2)).b
    s_plus_1 = MPoly.variable(1, 0) + 1
    b1_shifted = sum((s_plus_1 ** e[0] * c for e, c in b1.terms.items()), MPoly(1))
    assert b2 == b1 * b1_shifted


def test_no_solution_within_bounds():
    ctx = make_ctx(["x"], ["x"])
    assert find_bs_pair(ctx, (2,), SolveBounds(1, 0, 0, 1)) is None


def test_verify_rejects_tampered_certificate():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    bad = BSCertificate(cert.ctx, cert.a, cert.b + MPoly.const(1, 1), cert.P)
    assert verify(cert)
    assert not verify(bad)


def test_invertible_twist_rejected():
    ctx = make_ctx(["x"], ["3"])
    with pytest.raises(InvertibleTwistError):
        find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))


def test_twist_validation():
    ctx = make_ctx(["x"], ["x"])
    with pytest.raises(ValueError):
        find_bs_pair(ctx, (-1,), SolveBounds(1, 0, 0, 1))
    with pytest.raises(ValueError):
        find_bs_pair(ctx, (1, 1), SolveBounds(1, 0, 0, 1))


# Certificates and the (rows, columns, nonzeros) of every system handed to
# linalg.nullspace.  The certificates were recorded from a
# solver that multiplied whole polynomials per column, eliminated the whole
# system and recovered P by a second elimination, so they pin P against how
# it is computed; the sizes are those of the weight-graded piece that holds
# the b columns (the whole systems were (308, 304, 1812), (257, 124, 702),
# (244, 124, 822), (124, 64, 158) and (754, 905, 8120), (622, 305, 2780),
# (622, 305, 2780), (566, 185, 1280)).
PINNED = [
    (
        ["x^2 + y^3"],
        (1,),
        (3, 3, 2, 3),
        {
            "F": ["y^3 + x^2"],
            "a": [1],
            "b": "s^3 + 3*s^2 + 107/36*s + 35/36",
            "P": "1/12*y*dx^2*dy + 1/27*dy^3 + (1/4*s + 3/8)*dx^2",
        },
        [(18, 16, 93)],
    ),
    (
        ["x^3 + y^3"],
        (1,),
        (4, 4, 3, 4),
        {
            "F": ["x^3 + y^3"],
            "a": [1],
            "b": "s^4 + 4*s^3 + 53/9*s^2 + 34/9*s + 8/9",
            "P": "2/81*y*dx^3*dy + (-2/81)*y*dy^4 + (1/27*s + 2/27)*dx^3 "
            "+ (1/9*s + 2/27)*dy^3",
        },
        [(74, 61, 540)],
    ),
    (
        # F sharing the factor x; values recorded when a germ kept its
        # denominator and twist apart
        ["x", "x*y"],
        (2, 1),
        (4, 0, 0, 4),
        {
            "F": ["x", "x*y"],
            "a": [2, 1],
            "b": "s1^3*s2 + 3*s1^2*s2^2 + 3*s1*s2^3 + s2^4 + s1^3 + 9*s1^2*s2 "
            "+ 15*s1*s2^2 + 7*s2^3 + 6*s1^2 + 23*s1*s2 + 17*s2^2 + 11*s1 + 17*s2 + 6",
            "P": "dx^3*dy",
        },
        [(15, 16, 29)],
    ),
    # powers g^m of a smooth g, where b = prod_{j=1..m} (s + j/m); a germ
    # keeps every f it is differentiated through in its numerator, so every
    # column carries a factor g^(m-1) that b does not need, and the systems
    # are 3 and 7 times taller than with it divided out
    (
        ["(x + y)^2"],
        (1,),
        (2, 0, 0, 2),
        {"F": ["x^2 + 2*x*y + y^2"], "a": [1], "b": "s^2 + 3/2*s + 1/2", "P": "1/4*dy^2"},
        [(9, 6, 36)],
    ),
    (
        ["(x + y^2)^3"],
        (1,),
        (3, 0, 0, 3),
        {
            "F": ["y^6 + 3*x*y^4 + 3*x^2*y^2 + x^3"],
            "a": [1],
            "b": "s^3 + 2*s^2 + 11/9*s + 2/9",
            "P": "1/27*dx^3",
        },
        [(28, 5, 56)],
    ),
]


@pytest.mark.parametrize(
    "F, a, box, want, sizes", PINNED, ids=[", ".join(p[0]) for p in PINNED]
)
def test_pinned_certificates_and_system_sizes(monkeypatch, F, a, box, want, sizes):
    seen = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        seen.append((len(rows), ncols, sum(len(r) for r in rows)))
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    ctx = make_ctx(["x", "y"], F)
    found = sample_ideal(ctx, a, SolveBounds(*box))
    assert [(name, cert.to_json_dict()) for name, cert in found] == [("mixed", want)]
    (_, cert), = found
    assert cert.b == sp(want["b"], r=len(F))
    assert verify(cert)
    assert seen == sizes


def spy_nullspace(monkeypatch):
    calls = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        calls.append(ncols)
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    return calls


def test_sample_ideal_strategies_and_dedup(monkeypatch):
    # one system per twist and one certificate from it
    calls = spy_nullspace(monkeypatch)
    ctx = make_ctx(["x", "y"], ["x", "x*y"])
    found = sample_ideal(ctx, (0, 1), SolveBounds(2, 0, 0, 2))
    assert [name for name, _ in found] == ["mixed"]
    assert found[0][1].b == sp("(s2 + 1)*(s1 + s2 + 1)", r=2)
    assert verify(found[0][1])
    assert len(calls) == 1


def test_sample_ideal_stops_when_mixed_finds_nothing(monkeypatch):
    # below deg b_f = 3 nothing certifies, and the one system is all that is built
    calls = spy_nullspace(monkeypatch)
    ctx = make_ctx(["x", "y"], ["x^2 + y^3"])
    assert sample_ideal(ctx, (1,), SolveBounds(3, 3, 2, 2)) == []
    assert len(calls) == 1


def test_sample_ideal_takes_each_germ_derivative_once(monkeypatch):
    calls = []
    derivative = solver.partial_derivative

    def spy(v, j):
        calls.append(j)
        return derivative(v, j)

    monkeypatch.setattr(solver, "partial_derivative", spy)
    ctx = make_ctx(["x", "y"], ["x^3 + y^3"])
    sample_ideal(ctx, (1,), SolveBounds(4, 4, 3, 4))
    # one derivative per nonzero d-monomial of order <= 4 in two variables
    assert len(calls) == 14


def test_solver_check_reuses_the_solve_derivatives(monkeypatch):
    # the post-condition check expands P over the solve's own derivative
    # table: weyl takes no derivative of its own, and the solver takes as
    # many as before the table was shared (8 for this rung)
    calls = {"weyl": 0, "solver": 0}

    def counting(side, fn):
        def spy(v, j):
            calls[side] += 1
            return fn(v, j)

        return spy

    monkeypatch.setattr(weyl, "partial_derivative", counting("weyl", weyl.partial_derivative))
    monkeypatch.setattr(solver, "partial_derivative", counting("solver", solver.partial_derivative))
    ctx = make_ctx(["x", "y"], ["x^2 + y^3"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(3, 3, 2, 3))
    assert cert is not None
    assert calls == {"weyl": 0, "solver": 8}
    # a one-argument verify still derives its own germs
    calls.update(weyl=0, solver=0)
    assert verify(cert)
    assert calls["weyl"] > 0 and calls["solver"] == 0


def full_system(ctx, a, bounds):
    """The whole bounded system: every column assembled, none graded away.

    Returns (ucols, taus, rows): operator columns (beta, alpha, sigma) come
    first, then one b column per tau; every column is written over the frame
    f^(s - D), with D = max(0, -exps) over all betas, and rows are the
    monomials in descending graded lex.
    """
    n, r = ctx.n, ctx.r
    betas = list(iter_monomials(n, bounds.max_operator_order))
    germs = {}
    for beta in betas:
        g = GermElement.power(ctx, a)
        for j, k in enumerate(beta):
            for _ in range(k):
                g = partial_derivative(g, j)
        germs[beta] = g
    D = [max([0] + [-g.exps[i] for g in germs.values()]) for i in range(r)]
    ucols = [
        (beta, alpha, sigma)
        for beta in betas
        for alpha in iter_monomials(n, bounds.max_x_degree)
        for sigma in iter_monomials(r, bounds.max_s_degree)
    ]
    taus = list(iter_monomials(r, bounds.max_b_degree))
    bases = {
        beta: g.num * ctx.f_power([d + e for d, e in zip(D, g.exps)])
        for beta, g in germs.items()
    }
    polys = [(bases[beta], alpha + sigma) for beta, alpha, sigma in ucols]
    rhs = -ctx.f_power(D)
    polys += [(rhs, (0,) * n + tau) for tau in taus]
    rows = {}
    for col, (poly, shift) in enumerate(polys):
        for mono, c in poly.terms.items():
            rows.setdefault(tuple(map(add, mono, shift)), {})[col] = c
    return ucols, taus, [rows[m] for m in sorted(rows, key=grlex_key, reverse=True)]


def operator(ctx, ucols, u):
    """The Weyl operator whose coefficient at column t is u[t]."""
    terms = {}
    for t, c in u.items():
        if c:
            beta, alpha, sigma = ucols[t]
            term = MPoly.monomial(ctx.r, sigma, c)
            terms[(alpha, beta)] = terms[(alpha, beta)] + term if (alpha, beta) in terms else term
    return WeylOperator(ctx.n, ctx.r, terms)


def full_system_certificate(ctx, a, bounds):
    """(b, P) of the whole system, read from its kernel basis in two ways.

    One-vector reading: the first basis vector whose free column is a b
    column.  Two-step reading: the b-parts of all such vectors, with their
    columns in descending graded lex, go through rref_rational; its last
    row vstar is the monic b with the smallest leading monomial, and P is
    the operator part of sum vstar[f] * vec over the vectors with b column
    f as free column.  The two must agree; returns their (b, P), or None.
    """
    ucols, taus, rows = full_system(ctx, a, bounds)
    U, T = len(ucols), len(taus)
    basis = linalg.nullspace(rows, U + T)
    b_vectors = [vec for vec in basis if max(vec) >= U]
    if not b_vectors:
        return None

    vec = b_vectors[0]
    b = MPoly(ctx.r, {taus[j - U]: c for j, c in vec.items() if j >= U})
    P = operator(ctx, ucols, {j: c for j, c in vec.items() if j < U})

    # projection column k holds taus[T - 1 - k]
    projections = [{T - 1 - (j - U): v for j, v in vec.items() if j >= U} for vec in b_vectors]
    _, vstar = linalg.rref_rational(projections)[-1]
    u = {}
    for vec in b_vectors:
        w = vstar.get(T - 1 - (max(vec) - U))
        if not w:
            continue
        for j, v in vec.items():
            if j < U:
                u[j] = u.get(j, 0) + w * v
    assert MPoly(ctx.r, {taus[T - 1 - k]: c for k, c in vstar.items()}) == b
    assert operator(ctx, ucols, u) == P
    return b, P


# W = {0}: the grading keeps every column
UNGRADED = ["x^2 + y^3 + x^2*y^2"]


def oracle_problems():
    """(ctx, a, bounds) of every corpus entry plus hand-picked boxes, each
    of which certifies."""
    problems = [(spec.ctx, spec.a, spec.bounds) for spec in load_specs(corpus_paths())]
    problems.append((make_ctx(["x", "y", "z"], ["x*y", "y*z"]), (1, 2), SolveBounds(6, 0, 0, 6)))
    # boxes with slack, whose kernels hold several vectors with a b-part
    problems.append((make_ctx(["x"], ["x"]), (1,), SolveBounds(2, 1, 1, 3)))
    problems.append((make_ctx(["x", "y"], ["x^2 + y^3"]), (1,), SolveBounds(3, 3, 2, 4)))
    # a weight with a negative entry: W is spanned by (-1, 1)
    problems.append((make_ctx(["x", "y"], ["x*y + 1"]), (1,), SolveBounds(2, 1, 1, 2)))
    problems.append((make_ctx(["x", "y"], UNGRADED), (1,), SolveBounds(3, 3, 3, 4)))
    return problems


def test_certificate_matches_two_step_oracle(monkeypatch):
    # the oracle eliminates the whole system and reads (b, P) two ways, the
    # solver only the weight-graded piece of the b columns: all must agree
    compared = []
    find = solver.find_bs_pair

    def spy_find(ctx, a, bounds):
        cert = find(ctx, a, bounds)
        want = full_system_certificate(ctx, a, bounds)
        assert (None if cert is None else (cert.b, cert.P)) == want
        compared.append(cert is not None)
        return cert

    monkeypatch.setattr(solver, "find_bs_pair", spy_find)
    problems = oracle_problems()
    for ctx, a, bounds in problems:
        assert sample_ideal(ctx, a, bounds)
    assert compared == [True] * len(problems)
    ungraded = make_ctx(["x", "y"], UNGRADED)
    assert ungraded.weights == ()
    assert sample_ideal(ungraded, (1,), SolveBounds(3, 3, 2, 3)) == []
    assert compared[-1] is False


def test_linear_factors_match_sympy():
    # an independent factorization over Q of every canonical b: its linear
    # factors with nonnegative slopes are the hyperplanes, anything else
    # nonconstant is the remainder that extract_hyperplanes leaves; the last
    # two polynomials have such a remainder, which no canonical b here has
    sympy = pytest.importorskip("sympy")
    polys = [find_bs_pair(ctx, a, bounds).b for ctx, a, bounds in oracle_problems()]
    polys += [sp("(s1 - s2 + 1)*(s1 + s2 + 2)^2", r=2), sp("(s^2 + 1)*(3*s + 1)")]
    for b in polys:
        syms = sympy.symbols(s_names(b.nvars))
        expr = sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(syms, mono)))
            for mono, c in b.terms.items()
        )
        want, residual = {}, False
        for factor, mult in sympy.factor_list(expr, *syms)[1]:
            poly = sympy.Poly(factor, *syms)
            if poly.total_degree() == 1:
                normal = [poly.coeff_monomial(x) for x in syms]
                coeffs = [Fraction(int(c.p), int(c.q)) for c in normal + [poly.coeff_monomial(1)]]
                h = Hyperplane.canonical(coeffs[:-1], coeffs[-1])
                if min(h.normal) >= 0:
                    want[h] = want.get(h, 0) + mult
                    continue
            residual = True
        pairs, rem = extract_hyperplanes(b)
        assert dict(pairs) == want, format_poly(b, s_names(b.nvars))
        assert (rem.total_degree() > 0) == residual
    assert residual


def b_block_columns(ncols, U, rows):
    """Columns connected to a b column (index >= U) through shared rows."""
    by_col = {}
    for i, row in enumerate(rows):
        for c in row:
            by_col.setdefault(c, []).append(i)
    seen, todo = set(range(U, ncols)), list(range(U, ncols))
    while todo:
        for i in by_col.get(todo.pop(), ()):
            for c in rows[i]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
    return seen


def bp_rungs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    if not os.path.exists(path):
        return []
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    names = ["x", "y", "z", "w"]
    return [
        (
            make_ctx(names[: len(p)], [" + ".join(f"{v}^{k}" for v, k in zip(names, p))]),
            (1,),
            SolveBounds(*box),
        )
        for p, box in module.BP_RUNGS
    ]


def test_graded_columns_contain_the_b_block():
    problems = [(spec.ctx, spec.a, spec.bounds) for spec in load_specs(corpus_paths())]
    problems += bp_rungs()
    problems.append((make_ctx(["x", "y"], ["x^2 + y^3 + x^2*y^2"]), (1,), SolveBounds(3, 3, 2, 3)))
    problems.append((make_ctx(["x", "y"], ["x*y + 1"]), (1,), SolveBounds(2, 1, 1, 2)))
    for ctx, a, bounds in problems:
        ucols, taus, rows = full_system(ctx, a, bounds)
        U = len(ucols)
        block = b_block_columns(U + len(taus), U, rows)
        # E: the x-exponent of f^a built from one term of each f_i
        E = [0] * ctx.n
        for ai, f in zip(a, ctx.F):
            E = [x + ai * e for x, e in zip(E, next(iter(f.terms)))]
        target = ctx.weight(E)
        graded = {
            t
            for t, (beta, alpha, _) in enumerate(ucols)
            if tuple(x - y for x, y in zip(ctx.weight(beta), ctx.weight(alpha))) == target
        }
        assert {t for t in block if t < U} <= graded
        for w in ctx.weights:
            for f in ctx.F:
                assert len({sum(map(mul, w, e)) for e in f.terms}) == 1


def test_find_bs_pair_eliminates_once(monkeypatch):
    calls = []
    rref = linalg.rref

    def spy(*args, **kwargs):
        calls.append(1)
        return rref(*args, **kwargs)

    # the context's weight space is one elimination of its own, made once
    ctx = make_ctx(["x", "y"], ["x^2 + y^3"])
    monkeypatch.setattr(linalg, "rref", spy)
    assert find_bs_pair(ctx, (1,), SolveBounds(3, 3, 2, 3)) is not None
    assert len(calls) == 1
    assert find_bs_pair(ctx, (1,), SolveBounds(3, 3, 2, 2)) is None
    assert len(calls) == 2


def brieskorn_pham_b(p):
    """Coefficients of b_f for f = sum x_i^p_i, lowest degree first.

    b_f = (s + 1) * prod (s + l) over the distinct l = sum (m_i + 1)/p_i
    with 0 <= m_i <= p_i - 2, multiplied out in plain Fractions.
    """
    ls = {Fraction(0)}
    for pi in p:
        ls = {l + Fraction(m + 1, pi) for l in ls for m in range(pi - 1)}
    coeffs = [Fraction(1)]
    for root in [Fraction(1)] + sorted(ls):
        # times (s + root)
        coeffs = [
            (coeffs[k - 1] if k else 0) + root * (coeffs[k] if k < len(coeffs) else 0)
            for k in range(len(coeffs) + 1)
        ]
    return coeffs


@pytest.mark.parametrize(
    "p, box",
    [
        ((2, 5), (5, 5, 4, 5)),
        ((2, 5), (5, 8, 4, 5)),
        ((3, 4), (7, 3, 3, 7)),
        ((2, 2, 3), (3, 2, 2, 3)),
    ],
    ids=["x^2+y^5 (5,5,4,5)", "x^2+y^5 (5,8,4,5)", "x^3+y^4 (7,3,3,7)", "x^2+y^2+z^3 (3,2,2,3)"],
)
def test_brieskorn_pham_closed_form(p, box):
    # under the cap: the first two boxes' whole systems (2058 x 2211 and
    # 3003 x 4731) exceed it, their graded pieces (50 x 66, 50 x 76) do not
    names = ["x", "y", "z"][: len(p)]
    ctx = make_ctx(names, [" + ".join(f"{v}^{k}" for v, k in zip(names, p))])
    cert = find_bs_pair(ctx, (1,), SolveBounds(*box))
    want = brieskorn_pham_b(p)
    assert len(want) == box[3] + 1
    assert cert.b.terms == {(k,): c for k, c in enumerate(want) if c}


def milnor_b_function(f_text, names):
    """b_f of a quasi-homogeneous isolated singularity by the closed form,
    computed with sympy alone, and the Milnor number.

    The weights w solve w . m = 1 for every exponent m of f, and
    b_f = (s + 1) * prod (s + l) over the distinct l = sum w_i (m_i + 1),
    x^m ranging over the standard monomials of a grevlex Groebner basis of
    the partials (Malgrange 1975; Yano 1978).
    """
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(names)
    f = sympy.sympify(f_text.replace("^", "**"), locals=dict(zip(names, xs)))
    ws = sympy.symbols([f"w{i}" for i in range(len(xs))])
    exps = sympy.Poly(f, *xs).monoms()
    (w,) = sympy.linsolve([sum(wi * k for wi, k in zip(ws, m)) - 1 for m in exps], ws)
    basis = sympy.groebner([sympy.diff(f, x) for x in xs], *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    # a zero-dimensional ideal has a pure power of each variable among its leads
    box = [min(m[i] for m in leads if sum(m) == m[i]) for i in range(len(xs))]
    standard = [
        m
        for m in itertools.product(*map(range, box))
        if not any(all(map(ge, m, lead)) for lead in leads)
    ]
    ls = {sum(wi * (k + 1) for wi, k in zip(w, m)) for m in standard}
    b = MPoly(1, {(1,): 1, (0,): 1})
    for l in ls:
        b = b * MPoly(1, {(1,): 1, (0,): Fraction(int(l.p), int(l.q))})
    return b, len(standard)


@pytest.mark.parametrize(
    "f, names, box, mu",
    [
        ("x^2*y + y^3", ["x", "y"], (4, 3, 3, 4), 4),
        ("x^2*y + y^4", ["x", "y"], (6, 4, 4, 6), 5),
        ("x^3 + x*y^3", ["x", "y"], (8, 5, 5, 8), 7),
        ("x^2 + y^2 + z^5", ["x", "y", "z"], (6, 4, 4, 6), 4),
    ],
    ids=["D4", "D5", "E7", "x^2+y^2+z^5"],
)
def test_quasi_homogeneous_closed_form(f, names, box, mu):
    # an oracle outside the package: the canonical b is the closed form,
    # and a b-degree below that of b_f exhausts the box
    want, milnor = milnor_b_function(f, names)
    assert milnor == mu
    ctx = make_ctx(names, [f])
    assert find_bs_pair(ctx, (1,), SolveBounds(*box)).b == want
    below = SolveBounds(*box[:3], want.total_degree() - 1)
    assert find_bs_pair(ctx, (1,), below) is None


def test_ungraded_deformation_of_the_cusp():
    # x^2+y^3+x*y^2 is homogeneous for no weight (W = {0}), so the whole
    # system is eliminated.  Its b is that of x^2+y^3, known without the
    # solver: A2 is 3-determined, and the other critical point (-9/2, 3)
    # has f = 27/4 != 0.
    ctx = make_ctx(["x", "y"], ["x^2 + y^3 + x*y^2"])
    assert ctx.weights == ()
    cert = find_bs_pair(ctx, (1,), SolveBounds(3, 3, 3, 3))
    assert cert.b == sp("(s + 1)*(s + 5/6)*(s + 7/6)")
    assert cert.b == sp("s^3 + 3*s^2 + 107/36*s + 35/36")


def test_brieskorn_pham_below_degree_of_b_f():
    # any certified b is a multiple of b_f, whose degree 5 exceeds the box
    ctx = make_ctx(["x", "y"], ["x^2 + y^5"])
    assert len(brieskorn_pham_b((2, 5))) - 1 == 5
    assert find_bs_pair(ctx, (1,), SolveBounds(5, 3, 3, 4)) is None


def test_cell_cap(monkeypatch):
    monkeypatch.setattr(solver, "CELL_CAP", 4)
    ctx = make_ctx(["x"], ["x"])
    with pytest.raises(SolveCapExceeded):
        find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))


def test_certificate_json():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    assert cert.to_json_dict() == {
        "F": ["x"],
        "a": [1],
        "b": "s + 1",
        "P": "dx",
    }


def test_random_twists_verify():
    rng = random.Random(412)
    ctx = make_ctx(["x", "y"], ["x", "y"])
    for _ in range(6):
        a = (rng.randint(0, 2), rng.randint(0, 2))
        if a == (0, 0):
            a = (1, 1)
        order = a[0] + a[1]
        cert = find_bs_pair(ctx, a, SolveBounds(order, 0, 0, order))
        assert cert is not None
        assert verify(cert)
        want = MPoly.const(2, 1)
        for i, ai in enumerate(a):
            for j in range(1, ai + 1):
                want = want * (MPoly.variable(2, i) + j)
        assert cert.b == want


def own_table(cert):
    return derivative_table(GermElement.power(cert.ctx, cert.a), partial_derivative)


def nudged(p, key):
    """p with its coefficient at key moved by 1/7, a denominator no
    certificate here has, so the check's lcm scaling is not 1."""
    terms = dict(p.terms)
    terms[key] = terms.get(key, 0) + Fraction(1, 7)
    return MPoly(p.nvars, terms)


def test_verify_with_a_shared_table_matches_and_rejects_nudges():
    # the certificates of test_random_twists_verify: verify(cert, table)
    # agrees with verify(cert), and both reject a nudged b or P
    rng = random.Random(412)
    ctx = make_ctx(["x", "y"], ["x", "y"])
    for _ in range(6):
        a = (rng.randint(0, 2), rng.randint(0, 2))
        if a == (0, 0):
            a = (1, 1)
        order = a[0] + a[1]
        cert = find_bs_pair(ctx, a, SolveBounds(order, 0, 0, order))
        assert verify(cert, own_table(cert)) is verify(cert) is True
        key = next(iter(cert.P.terms))
        bad_p = WeylOperator(2, 2, {**cert.P.terms, key: nudged(cert.P.terms[key], (0, 0))})
        bad_b = nudged(cert.b, next(iter(cert.b.terms)))
        for bad in (
            BSCertificate(ctx, a, cert.b, bad_p),
            BSCertificate(ctx, a, bad_b, cert.P),
        ):
            assert not verify(bad)
            assert not verify(bad, own_table(bad))


def test_verify_certificate_with_mixed_int_and_fraction_coefficients():
    # f = x^2 + y^2: (s+1)^2 f^s = (dx^2 + dy^2)/4 f^(s+1), and the Euler
    # operator x*dx + y*dy - 2(s+1) kills f^(s+1); adding 3 times it mixes
    # int and Fraction coefficients in P
    ctx = make_ctx(["x", "y"], ["x^2 + y^2"])
    quarter = MPoly.const(1, Fraction(1, 4))
    three = MPoly.const(1, 3)
    P = WeylOperator(2, 1, {
        ((0, 0), (2, 0)): quarter,
        ((0, 0), (0, 2)): quarter,
        ((1, 0), (1, 0)): three,
        ((0, 1), (0, 1)): three,
        ((0, 0), (0, 0)): sp("-6*s - 6"),
    })
    cert = BSCertificate(ctx, (1,), sp("(s + 1)^2"), P)
    assert {type(c) for p in P.terms.values() for c in p.terms.values()} == {int, Fraction}
    assert verify(cert) and verify(cert, own_table(cert))
    bad = BSCertificate(ctx, (1,), cert.b, WeylOperator(2, 1, {
        **P.terms, ((1, 0), (1, 0)): nudged(three, (0,))}))
    assert not verify(bad) and not verify(bad, own_table(bad))
