"""Coordinate twins: a linear change of x leaves the canonical b unchanged.

`SolveBounds` bounds the total x-degree of each Q_beta and the total
order |beta|.  An invertible linear map x -> Ax turns d into A^(-T) d, so
it keeps both totals and keeps x to the left of d: the ansatz of F o A is
the image of the ansatz of F, and the canonical b is the same in every
box.  A generic A destroys the weight grading of a quasi-homogeneous F
that is not homogeneous, so the twin runs the ungraded solver path, on a
system many times larger, and checks the graded path's answer.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bsideal.polynomials import MPoly, parse_poly  # noqa: E402
from bsideal.solver import SolveBounds, find_bs_pair  # noqa: E402
from bsideal.weyl import GermContext  # noqa: E402

NAMES = ["x", "y"]
# (f, box): certifying boxes, and one whose b-degree is one short of b_f
CASES = [
    ("x^2 + y^3", (3, 3, 2, 3)),
    ("x^2 + y^3", (3, 3, 2, 2)),
    ("x^3 + y^3", (4, 4, 3, 4)),
]


def compose(f: MPoly, A) -> MPoly:
    """f(Ax): x_i -> sum_j A[i][j] x_j."""
    n = f.nvars
    rows = [
        sum((MPoly.variable(n, j) * v for j, v in enumerate(row) if v), MPoly(n))
        for row in A
    ]
    out = MPoly(n)
    for e, c in f.terms.items():
        term = MPoly.const(n, c)
        for row, k in zip(rows, e):
            term = term * row**k
        out = out + term
    return out


def canonical_b(F, box):
    cert = find_bs_pair(GermContext(NAMES, F), (1,), SolveBounds(*box))
    return None if cert is None else cert.b


def determinant(A) -> int:
    (a, b), (c, d) = A
    return a * d - b * c


entry = st.integers(-2, 2)
matrices = st.lists(
    st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2
).filter(determinant)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(CASES), matrices)
@example(CASES[0], [[0, 1], [1, 0]])  # a permutation: (y^2 + x^3)
@example(CASES[0], [[1, 2], [1, -1]])  # (x + 2y)^2 + (x - y)^3
@example(CASES[2], [[1, 1], [1, -1]])  # still homogeneous
def test_twin_has_the_same_canonical_b(case, A):
    text, box = case
    f = parse_poly(text, NAMES)
    assert canonical_b([compose(f, A)], box) == canonical_b([f], box)


def test_twin_off_the_grading_in_three_variables():
    # (x + z)^2 + y^2 + (z + y)^3 has no weight grading: the ungraded
    # path certifies the b of x^2 + y^2 + z^3
    names = ["x", "y", "z"]
    f = parse_poly("x^2 + y^2 + z^3", names)
    twin = parse_poly("(x + z)^2 + y^2 + (z + y)^3", names)
    box = SolveBounds(3, 2, 2, 3)
    ctx = GermContext(names, [twin])
    assert not ctx.weights
    want = find_bs_pair(GermContext(names, [f]), (1,), box)
    got = find_bs_pair(ctx, (1,), box)
    assert want is not None and got is not None
    assert got.b == want.b
