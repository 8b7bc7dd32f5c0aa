"""Fuzzed solves against the whole, unpruned system.

`find_bs_pair` assembles only the weight-graded piece that holds b, and
leaves out every b column with a row that no operator column reaches.
Random monomial collections, and two collections that are not monomial,
are solved both ways: the certificates must agree, and every b column the
solver leaves out must be 0 in every vector of the unpruned kernel.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from bsideal import linalg  # noqa: E402
from bsideal.solver import SolveBounds, find_bs_pair  # noqa: E402
from test_solver import full_system, graded_columns, kernel_certificate, make_ctx  # noqa: E402

NAMES = ("x", "y", "z")
# The closed-form b of x^e_1..x^e_r at twist a has degree sum_i a_i |e_i|;
# boxes of a larger order make the unpruned system slow to eliminate.
MAX_DEGREE = 6


@st.composite
def monomial_problems(draw):
    """(names, F, a, box): r <= 3 nonconstant monomials in n <= 3 variables
    with exponents <= 2, a nonzero twist, and a box whose order and
    b-degree are the degree of the closed-form b, which it certifies.
    Half the exponents are 0: the rule leaves b columns out mostly when
    the f_i are sparse, since then b has few monomials."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from((0, 0, 1, 2)), min_size=n, max_size=n).filter(any)
    exps = draw(st.lists(row, min_size=r, max_size=r))
    a = tuple(draw(st.lists(st.integers(0, 2), min_size=r, max_size=r).filter(any)))
    degree = sum(ai * sum(e) for ai, e in zip(a, exps))
    assume(degree <= MAX_DEGREE)
    F = ["*".join(f"{v}^{k}" for v, k in zip(NAMES, e) if k) for e in exps]
    box = (degree, draw(st.integers(0, 1)), draw(st.integers(0, 1)), degree)
    return list(NAMES[:n]), F, a, box


@settings(max_examples=60, deadline=None)
@given(monomial_problems())
# the first multi-param benchmark entry: 4 of 28 b columns are left out
@example((["x", "y", "z"], ["x*y", "y*z"], (1, 2), (6, 0, 0, 6)))
# W spanned by (1, 1); the rule leaves out one of six b columns
@example((["x", "y"], ["x + y", "x"], (1, 1), (2, 0, 0, 2)))
# W = {0}: the whole system is assembled, and five of ten b columns are left out
@example((["x", "y"], ["x + y + 1", "y"], (1, 1), (2, 1, 0, 3)))
def test_pruned_solve_matches_the_whole_system(problem):
    names, F, a, box = problem
    ctx = make_ctx(names, F)
    bounds = SolveBounds(*box)
    with mock.patch.object(linalg, "nullspace", wraps=linalg.nullspace) as spy:
        cert = find_bs_pair(ctx, a, bounds)
    ((_, ncols, _),) = [call.args for call in spy.call_args_list]

    ucols, taus, rows = full_system(ctx, a, bounds)
    U, T = len(ucols), len(taus)
    basis = linalg.nullspace(rows, U + T)
    want = kernel_certificate(ctx, ucols, taus, basis)
    assert (None if cert is None else (cert.b, cert.P)) == want

    # No two b columns share a row, so a row that no operator column
    # reaches holds one b column alone.  The solver's frame f^(s - D) is
    # this one times a monomial for a monomial F, and the same for the
    # other two examples, so it leaves out these same b columns.
    left_out = {c for row in rows if len(row) == 1 and (c := min(row)) >= U}
    assert ncols == len(graded_columns(ctx, a, ucols)) + T - len(left_out)
    assert not any(c in vec for vec in basis for c in left_out)
