"""Certificates for Bernstein-Sato functional equations, found and checked exactly.

A certificate is a pair (b, P) with b in Q[s_1..s_r] and P a Weyl operator
over Q[s] such that

    b(s) * f^s  ==  P . f^(s + a)

for the fixed collection F = (f_1..f_r) and twist a.  `verify` expands both
sides as germs and compares numerators exactly; it is the oracle every
other routine in the package defers to.

`find_bs_pair` searches a bounded ansatz: the identity is linear in the
coefficients of P and b, so candidates form the nullspace of an exact
linear system.  Among solutions with b != 0 the canonical one is the
reduced-echelon representative whose leading monomial is smallest in
graded lex; it has minimal total degree, is monic, and is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from . import linalg
from .polynomials import MPoly, format_poly, grlex_key, iter_monomials
from .weyl import (
    GermContext,
    GermElement,
    WeylOperator,
    apply,
    format_operator,
    partial_derivative,
)

Exps = tuple[int, ...]

_CELL_CAP_ENV = "BSIDEAL_MAX_CELLS"
_DEFAULT_CELL_CAP = 4_000_000


class SolverError(Exception):
    pass


class InvertibleTwistError(SolverError):
    """f^a is a nonzero constant, so the equation is trivial."""


class SolveCapExceeded(SolverError):
    """The bounded linear system would exceed the configured size cap."""


@dataclass(frozen=True)
class SolveBounds:
    max_operator_order: int
    max_x_degree: int
    max_s_degree: int
    max_b_degree: int

    def __post_init__(self):
        for name in ("max_operator_order", "max_x_degree", "max_s_degree", "max_b_degree"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative int")


@dataclass(frozen=True)
class BSCertificate:
    ctx: GermContext
    a: tuple[int, ...]
    b: MPoly
    P: WeylOperator

    def to_json_dict(self) -> dict:
        sn = list(self.ctx.s_vars)
        xn = list(self.ctx.x_names)
        return {
            "F": [format_poly(f, xn + sn) for f in self.ctx.F],
            "a": list(self.a),
            "b": format_poly(self.b, sn),
            "P": format_operator(self.P, xn, sn),
        }


def verify(cert: BSCertificate) -> bool:
    """Exact check of b(s) * f^s == P . f^(s+a)."""
    ctx = cert.ctx
    lhs = GermElement.power(ctx, (0,) * ctx.r).scale(cert.b)
    rhs = apply(cert.P, GermElement.power(ctx, cert.a))
    return lhs == rhs


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


def cell_cap() -> int:
    """The cap on rows x columns from BSIDEAL_MAX_CELLS, or the default.

    Raises ValueError when the variable is set to anything but a positive
    integer.
    """
    raw = os.environ.get(_CELL_CAP_ENV, "")
    if not raw:
        return _DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"{_CELL_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def _shifted(poly: MPoly, shift: Exps) -> Iterable[tuple[Exps, Fraction]]:
    """Terms of poly times the monomial whose exponents are shift."""
    for mono, c in poly.terms.items():
        yield tuple(map(add, mono, shift)), c


def find_bs_pair(
    ctx: GermContext,
    a: Sequence[int],
    bounds: SolveBounds,
    d_support: Iterable[Exps] | None = None,
    *,
    _germs: dict[Exps, GermElement] | None = None,
) -> BSCertificate | None:
    """Minimal certificate within the bounded ansatz, or None.

    d_support restricts which d-monomials the operator may use (defaults to
    every monomial of order up to the bound); it is how sampling strategies
    differ.  Every returned certificate has monic b and passes `verify`.
    `sample_ideal` passes one beta -> germ table for the twist a to all of
    its strategies through _germs, so each derivative is taken once.
    """
    a = _validate_twist(ctx, a)
    n, r = ctx.n, ctx.r

    if d_support is None:
        betas = list(iter_monomials(n, bounds.max_operator_order))
    else:
        betas = sorted(
            {tuple(b) for b in d_support if sum(b) <= bounds.max_operator_order},
            key=grlex_key,
        )
        if (0,) * n not in betas:
            betas.insert(0, (0,) * n)

    germs = {} if _germs is None else _germs
    germs.setdefault((0,) * n, GermElement.power(ctx, a))

    def germ_for(beta: Exps) -> GermElement:
        g = germs.get(beta)
        if g is not None:
            return g
        j = next(i for i, e in enumerate(beta) if e > 0)
        prev = tuple(e - (1 if i == j else 0) for i, e in enumerate(beta))
        g = partial_derivative(germ_for(prev), j)
        germs[beta] = g
        return g

    for beta in betas:
        germ_for(beta)

    alphas = list(iter_monomials(n, bounds.max_x_degree))
    sigmas = list(iter_monomials(r, bounds.max_s_degree))
    taus = sorted(iter_monomials(r, bounds.max_b_degree), key=grlex_key, reverse=True)

    M = tuple(
        max(max(germs[b].denom[i] for b in betas), a[i]) for i in range(r)
    )

    ucols: list[tuple[Exps, Exps, Exps]] = [
        (beta, alpha, sigma) for beta in betas for alpha in alphas for sigma in sigmas
    ]
    U = len(ucols)
    ncols = U + len(taus)

    # Column (beta, alpha, sigma) is germs[beta] brought to the common
    # denominator f^M, times x^alpha s^sigma: one product per beta, then
    # exponent shifts.  Column U + t is -f^(M - a) s^taus[t].
    rows: dict[Exps, dict[int, Fraction]] = {}
    col = 0
    for beta in betas:
        g = germs[beta]
        base = g.num * ctx.f_power(tuple(x - y for x, y in zip(M, g.denom)))
        for alpha in alphas:
            for sigma in sigmas:
                for mono, c in _shifted(base, alpha + sigma):
                    rows.setdefault(mono, {})[col] = c
                col += 1
    rhs = -ctx.f_power(tuple(x - y for x, y in zip(M, a)))
    for tau in taus:
        for mono, c in _shifted(rhs, (0,) * n + tau):
            rows.setdefault(mono, {})[col] = c
        col += 1

    cap = cell_cap()
    if len(rows) * ncols > cap:
        raise SolveCapExceeded(
            f"linear system of {len(rows)}x{ncols} exceeds cap {cap} "
            f"(set {_CELL_CAP_ENV} to raise it)"
        )

    ordered_rows = [rows[m] for m in sorted(rows, key=grlex_key, reverse=True)]
    basis = linalg.nullspace(ordered_rows, ncols)

    # Operator columns come first, so a kernel vector has a b-part exactly
    # when its free column max(vec) is a b column.
    b_vectors = [vec for vec in basis if max(vec) >= U]
    if not b_vectors:
        return None
    projections = [{j - U: v for j, v in vec.items() if j >= U} for vec in b_vectors]

    reduced = linalg.rref_rational(projections, len(taus))
    # columns are sorted by descending monomial, so the last pivot is the
    # smallest leading monomial available: minimal total degree, monic
    _, vstar = reduced[-1]
    b = MPoly(r, {taus[j]: c for j, c in vstar.items()})

    # The kernel vector with b-part vstar is sum vstar[f - U] * vec over the
    # b_vectors (vec is 1 at its free column f, 0 at the others); its
    # operator part is the solution with every free operator column at 0.
    u: dict[int, Fraction] = {}
    for vec in b_vectors:
        w = vstar.get(max(vec) - U)
        if not w:
            continue
        for j, v in vec.items():
            if j < U:
                u[j] = u.get(j, 0) + w * v

    op_terms: dict[tuple[Exps, Exps], MPoly] = {}
    for t, (beta, alpha, sigma) in enumerate(ucols):
        c = u.get(t)
        if not c:
            continue
        key = (alpha, beta)
        add = MPoly.monomial(r, sigma, c)
        op_terms[key] = op_terms[key] + add if key in op_terms else add
    P = WeylOperator(n, r, op_terms)

    cert = BSCertificate(ctx, a, b, P)
    if not verify(cert):  # pragma: no cover - solver postcondition
        raise SolverError("check-failed: solved certificate does not verify")
    return cert


# Fixed strategy list for sampling: each entry restricts the d-monomial
# support of the operator ansatz.  "mixed" allows everything up to the
# order bound, "axis-j" only powers of one derivative, "balanced" only
# products with equal exponents.
def _strategies(n: int, order: int) -> list[tuple[str, list[Exps] | None]]:
    out: list[tuple[str, list[Exps] | None]] = [("mixed", None)]
    for j in range(n):
        support = [
            tuple(k if i == j else 0 for i in range(n)) for k in range(order + 1)
        ]
        out.append((f"axis-{j + 1}", support))
    if n > 1:
        support = [(t,) * n for t in range(order // n + 1)]
        out.append(("balanced", support))
    return out


def sample_ideal(
    ctx: GermContext, a: Sequence[int], bounds: SolveBounds
) -> list[tuple[str, BSCertificate]]:
    """Certificates from every strategy that finds one, deduplicated by b.

    Sorted by (degree of b, canonical order of b); all verified.
    """
    a = _validate_twist(ctx, a)
    found: dict[MPoly, tuple[str, BSCertificate]] = {}
    # every strategy's d-support lies inside "mixed", which runs first
    germs: dict[Exps, GermElement] = {}
    for name, support in _strategies(ctx.n, bounds.max_operator_order):
        cert = find_bs_pair(ctx, a, bounds, d_support=support, _germs=germs)
        if cert is None or cert.b in found:
            continue
        found[cert.b] = (name, cert)
    out = list(found.values())
    out.sort(key=lambda t: t[1].b.order_key())
    return out
