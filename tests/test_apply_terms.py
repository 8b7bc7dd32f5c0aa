"""weyl.apply takes each d^beta f^(s+a) once per call and shares derivative
chains between terms; the sum must still be the sum of its terms."""

from fractions import Fraction
from operator import sub

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bsideal.polynomials import MPoly, parse_poly, s_names  # noqa: E402
from bsideal.weyl import GermContext, GermElement, WeylOperator, apply  # noqa: E402

CTX = GermContext(
    ["x", "y"], s_names(2), [parse_poly(t, ["x", "y"]) for t in ("x + y^2", "x*y")]
)

EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
COEFFS = st.dictionaries(
    EXPS, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=2
).map(lambda t: MPoly(2, t)).filter(bool)
OPERATORS = st.dictionaries(st.tuples(EXPS, EXPS), COEFFS, min_size=1, max_size=5).map(
    lambda t: WeylOperator(2, 2, t)
)


def germ_sum(germs):
    """The sum of germs, over the frame of their smallest exponents."""
    e = tuple(map(min, zip(*(g.exps for g in germs))))
    num = MPoly(CTX.nvars)
    for g in germs:
        num = num + g.num * CTX.f_power(tuple(map(sub, g.exps, e)))
    return GermElement(CTX, num, e)


@settings(max_examples=40, deadline=None)
@given(OPERATORS, st.sampled_from([(1, 0), (0, 1), (1, 1)]))
def test_apply_is_the_sum_over_one_term_operators(op, a):
    v = GermElement.power(CTX, a)
    parts = [apply(WeylOperator(2, 2, {key: c}), v) for key, c in op.terms.items()]
    assert apply(op, v) == germ_sum(parts)
