"""weyl.apply takes each d^beta f^(s+a) once per call and shares derivative
chains between terms; the sum must still be the sum of its terms."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bsideal.polynomials import MPoly, parse_poly  # noqa: E402
from bsideal.weyl import GermContext, GermElement  # noqa: E402
from germ_helpers import applied, germ_sum, weyl_operator  # noqa: E402

CTX = GermContext(["x", "y"], [parse_poly(t, ["x", "y"]) for t in ("x + y^2", "x*y")])

EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
COEFFS = st.dictionaries(
    EXPS, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=2
).map(lambda t: MPoly(2, t)).filter(bool)
OPERATORS = st.dictionaries(st.tuples(EXPS, EXPS), COEFFS, min_size=1, max_size=5).map(
    lambda t: weyl_operator(2, 2, t)
)


@settings(max_examples=40, deadline=None)
@given(OPERATORS, st.sampled_from([(1, 0), (0, 1), (1, 1)]))
def test_apply_is_the_sum_over_one_term_operators(op, a):
    v = GermElement.power(CTX, a)
    parts = [
        applied({beta: MPoly(CTX.nvars, {e: c})}, v)
        for beta, q in op.items()
        for e, c in q.terms.items()
    ]
    assert applied(op, v) == germ_sum(*parts)
