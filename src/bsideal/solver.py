"""Certificates for Bernstein-Sato functional equations, found and checked exactly.

A certificate is a pair (b, P) with b in Q[s_1..s_r] and P a Weyl operator
over Q[s], the map {beta: Q_beta} of `weyl.Operator`, such that

    b(s) * f^s  ==  P . f^(s + a)

for the fixed collection F = (f_1..f_r) and twist a.  `verify` expands both
sides as germs and compares numerators exactly; it is the oracle every
other routine in the package defers to.  It first multiplies b and P by
the lcm of their coefficient denominators, so the expansion runs on int
coefficients, and expands P . f^(s+a) in one frame (`weyl.apply`).
`find_bs_pair` hands it the derivative table its solve filled, so the check
of a solved certificate takes no derivative of its own, and a one-argument
`verify(cert)` builds its own table.  Every table is built here through
`solver.partial_derivative`, so a wrapper bound there sees every derivative.

`find_bs_pair` searches a bounded ansatz: the identity is linear in the
coefficients of P and b, so candidates form the nullspace of an exact
linear system, and the b-parts of its vectors form the space B of
certified b.  The canonical b is the monic element of B whose leading
monomial is smallest in graded lex (B holds only one: the difference of
two would lead with a smaller monomial); it has minimal total degree and
is deterministic.  The canonical P is the operator part paired with it
that is 0 at every free operator column of the reduced system.  Both are
read off a single nullspace basis vector, so each call eliminates once.

Only the weight-graded piece of the system that holds b is built and
eliminated.  For w in the weight space W of F (`GermContext.weights`),
every column is w-homogeneous in x and every row is one monomial, so a row
only joins columns of one w-degree.  The piece whose degree is that of the
b columns is therefore a union of whole connected components: it reduces
under the pivot rule as it would inside the whole system, and the kernel
vectors with a b-part are those of the piece.  The other columns are never
assembled, and no germ derivative is taken for an operator monomial that
has none in the piece.  When W = {0} this keeps everything.  The system is
written over the frame f^(s - D), with D = max(0, -e) over the exponent
vectors e of the germs it uses; f^D scales every column alike, so (b, P)
is the certificate of the whole system.

Within the piece, b column tau is -f^D * s^tau with f^D in Q[x], so a row
x^mu s^kappa holds at most one b column, the one with tau = kappa.  A b
column with a row that no operator column reaches is alone in that row,
so it is 0 in every kernel vector and never free: the operator columns
are assembled first, and a b column is kept only when every one of its
rows is already an operator row.  The reduced system of the kept columns
is the old one without each left-out column and its unit row, so (b, P)
is the same.  The size cap counts rows x columns of what is left, the
piece that is eliminated, and first bounds it before any column is
scattered: one operator column's terms are distinct rows, so U operator
columns make at least max|base| x U cells.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Callable, Sequence

from . import linalg
from .polynomials import MPoly, Record, Scalar, _pack, _width, format_poly, iter_monomials
from .weyl import (
    GermContext,
    GermElement,
    Operator,
    apply,
    derivative_table,
    format_operator,
    partial_derivative,
)

Exps = tuple[int, ...]

# The most rows x columns find_bs_pair eliminates, and the most monomials
# a box may list; more of either raises SolveCapExceeded, which the CLI
# reports as bounds exhausted.
CELL_CAP = 4_000_000


class SolverError(Exception):
    pass


class InvertibleTwistError(SolverError):
    """f^a is a nonzero constant, so the equation is trivial."""


class SolveCapExceeded(SolverError):
    """The box or its bounded linear system would exceed CELL_CAP."""


class SolveBounds(Record):
    __slots__ = ("max_operator_order", "max_x_degree", "max_s_degree", "max_b_degree")
    max_operator_order: int
    max_x_degree: int
    max_s_degree: int
    max_b_degree: int

    def _check(self):
        for name, v in zip(self.__slots__, self._values):
            if type(v) is not int or v < 0:
                raise ValueError(f"{name} must be a nonnegative int")


class BSCertificate(Record):
    __slots__ = ("ctx", "a", "b", "P")
    ctx: GermContext
    a: tuple[int, ...]
    b: MPoly
    P: Operator

    def to_json_dict(self) -> dict:
        sn = list(self.ctx.s_vars)
        xn = list(self.ctx.x_names)
        return {
            "F": [format_poly(f, xn + sn) for f in self.ctx.F],
            "a": list(self.a),
            "b": format_poly(self.b, sn),
            "P": format_operator(self.P, xn, sn),
        }


def _times(p: MPoly, d: int) -> MPoly:
    """d * p with int coefficients; d is a multiple of every denominator of p.
    The exponents are p's own and each coefficient is a nonzero int, so the
    result is built raw."""
    terms = {k: c.numerator * (d // c.denominator) for k, c in p._packed.items()}
    return MPoly._raw(p.nvars, terms, p._w, p._deg)


def verify(
    cert: BSCertificate, germ_for: Callable[[Exps], GermElement] | None = None
) -> bool:
    """Exact check of b(s) * f^s == P . f^(s+a).

    Both sides are multiplied by d, the lcm of the coefficient denominators
    of b and P, so the expansion runs on int coefficients; d is nonzero, so
    the scaled identity holds exactly when the original one does.  germ_for,
    when given, is a derivative table of f^(s+a) whose germs the expansion
    reuses; otherwise verify builds one through `partial_derivative`.
    """
    ctx = cert.ctx
    b, P = cert.b, cert.P
    d = math.lcm(*(c.denominator for p in (b, *P.values()) for c in p._packed.values()))
    if d != 1:
        b = _times(b, d)
        P = {beta: _times(q, d) for beta, q in P.items()}
    v = GermElement.power(ctx, cert.a)
    if germ_for is None:
        germ_for = derivative_table(v, partial_derivative)
    lhs = GermElement(ctx, b.padded(ctx.n, 0), (0,) * ctx.r)
    return lhs == apply(P, v, germ_for)


def _validate_twist(ctx: GermContext, a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(a)
    if len(a) != ctx.r:
        raise ValueError("twist must have one entry per f_i")
    if any(x < 0 for x in a):
        raise ValueError("twist entries must be nonnegative")
    if ctx.invertible_power(a):
        raise InvertibleTwistError(
            "invertible-f^a: the twisted power is a nonzero constant"
        )
    return a


def find_bs_pair(
    ctx: GermContext, a: Sequence[int], bounds: SolveBounds
) -> BSCertificate | None:
    """The canonical certificate of the bounded ansatz for twist a, or None.

    The operator may use every d-monomial of order up to the bound.  The
    returned certificate has monic b and passes `verify`; None means no b
    within the bounds has a certificate.
    """
    a = _validate_twist(ctx, a)
    n, r = ctx.n, ctx.r
    # the monomial lists of the box: d^beta and x^alpha in n variables,
    # s^sigma and the b-monomials s^tau in r
    box = math.comb(n + bounds.max_operator_order, n) + math.comb(n + bounds.max_x_degree, n)
    box += math.comb(r + bounds.max_s_degree, r) + math.comb(r + bounds.max_b_degree, r)
    if box > CELL_CAP:
        raise SolveCapExceeded(f"box of {box} monomials exceeds cap {CELL_CAP}")

    germ_for = derivative_table(GermElement.power(ctx, a), partial_derivative)

    # Weight grading: under every w in W, column (beta, alpha, sigma) has
    # x-degree (D + a).deg_w(f) + w.(alpha - beta) and the b columns have
    # D.deg_w(f).  Every row is one monomial, so it holds columns of
    # one degree only: the graded piece with w.(beta - alpha) = deg_w(f^a)
    # for all w is a union of whole connected components of the system and
    # holds every b column.  Columns outside it are never assembled.
    # deg_w(f^a) = w.E, with E the x-exponent of one term of f^a
    lead = [next(iter(f.terms)) for f in ctx.F]
    target = ctx.weight([sum(ai * e[j] for ai, e in zip(a, lead)) for j in range(n)])
    by_weight, betas = ctx.grading(bounds.max_x_degree, bounds.max_operator_order)
    graded = [
        (beta, kept)
        for beta, w in betas
        if (kept := by_weight.get(tuple(map(sub, w, target))))
    ]
    germs = [germ_for(beta) for beta, _ in graded]
    D = tuple(max([0, *(-g.exps[i] for g in germs)]) for i in range(r))
    sigmas = list(iter_monomials(r, bounds.max_s_degree))

    # Column (beta, alpha, sigma) is germ_for(beta) over the frame
    # f^(s - D), num * f^(D + exps), times x^alpha s^sigma: one product per
    # beta, then exponent shifts.  Rows are keyed by packed monomials of
    # one field width, which holds the largest degree of any row.
    bases = [g.num * ctx.f_power(tuple(map(add, D, g.exps))) for g in germs]
    U = len(sigmas) * sum(len(kept) for _, kept in graded)
    cells = max([0, *(len(p._packed) for p in bases)]) * U
    if cells > CELL_CAP:
        raise SolveCapExceeded(f"linear system of at least {cells} cells exceeds cap {CELL_CAP}")
    neg_fD = -ctx.f_power(D)
    w = _width(max([
        neg_fD._deg + bounds.max_b_degree,
        *(p._deg + bounds.max_x_degree + bounds.max_s_degree for p in bases),
    ]))
    # operator column t is ucols[t] = (beta, alpha + sigma)
    rows: dict[int, dict[int, Scalar]] = {}
    ucols: list[tuple[Exps, Exps]] = []
    for (beta, kept), base in zip(graded, bases):
        terms = base._at(w).items()
        exps = [alpha + sigma for alpha in kept for sigma in sigmas]
        for e, shift in zip(exps, _pack(exps, w)):
            col = len(ucols)
            ucols.append((beta, e))
            for mono, c in terms:
                m = mono + shift
                row = rows.get(m)
                if row is None:
                    rows[m] = {col: c}
                else:
                    row[col] = c

    # b column tau is -f^D s^tau, kept only when each of its rows already
    # holds an operator column (see the module docstring); the kept ones
    # take columns U, U + 1, ... in ascending graded lex.
    rhs = list(neg_fD._at(w).items())
    col = U
    taus: list[Exps] = []
    all_taus = list(iter_monomials(r, bounds.max_b_degree))
    for tau, shift in zip(all_taus, _pack([(0,) * n + tau for tau in all_taus], w)):
        reached = []
        for mono, c in rhs:
            row = rows.get(mono + shift)
            if row is None:
                break
            reached.append((row, c))
        else:
            for row, c in reached:
                row[col] = c
            taus.append(tau)
            col += 1
    ncols = col

    if len(rows) * ncols > CELL_CAP:
        raise SolveCapExceeded(
            f"linear system of {len(rows)}x{ncols} exceeds cap {CELL_CAP}"
        )

    # packed keys sort in graded lex order
    ordered_rows = [rows[m] for m in sorted(rows, reverse=True)]
    basis = linalg.nullspace(ordered_rows, ncols)

    # Operator columns come first and b columns ascend in graded lex.  A
    # basis vector is 1 at its free column f and nonzero elsewhere only at
    # pivot columns below f, so the first one whose f is a b column has a
    # b-part led by taus[f - U] with coefficient 1, and no b in the kernel
    # leads with a smaller monomial: that b-part is the canonical b, and
    # the vector's operator part, 0 at the other free columns, is P.
    vec = next((v for v in basis if max(v) >= U), None)
    if vec is None:
        return None
    b = MPoly(r, {taus[j - U]: c for j, c in vec.items() if j >= U})

    # operator column (beta, alpha + sigma) is the coefficient of
    # x^alpha s^sigma in Q_beta
    coeffs: dict[Exps, dict[Exps, Scalar]] = {}
    for t, (beta, e) in enumerate(ucols):
        if c := vec.get(t):
            coeffs.setdefault(beta, {})[e] = c
    P = {beta: MPoly(n + r, q) for beta, q in coeffs.items()}

    cert = BSCertificate(ctx, a, b, P)
    # every beta of P is a beta of graded, so the check takes no derivative
    if not verify(cert, germ_for):  # pragma: no cover - solver postcondition
        raise SolverError("check-failed: solved certificate does not verify")
    return cert


def sample_ideal(
    ctx: GermContext, a: Sequence[int], bounds: SolveBounds
) -> list[tuple[str, BSCertificate]]:
    """One solve for twist a: [("mixed", cert)] with its canonical
    certificate, or [] when none lies within the bounds.  The report shows
    "mixed" as the strategy: the operator may use every d-monomial."""
    cert = find_bs_pair(ctx, a, bounds)
    return [] if cert is None else [("mixed", cert)]
