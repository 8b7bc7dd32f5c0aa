"""Coefficients stay exact: int where integral, Fraction otherwise, never a
float or a bool.  Every MPoly operation is checked against a Fraction-only
reference written here on plain dicts, and the integer division by a linear
form that hyperplane extraction uses against MPoly.divide_exact."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bsideal.hyperplanes import _divide_linear, linear_form  # noqa: E402
from bsideal.polynomials import MPoly  # noqa: E402

NVARS = 2


def exps(nvars=NVARS):
    return st.tuples(*[st.integers(0, 3)] * nvars)


INTS = st.integers(-6, 6)
FRACS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def polys(coeffs, nvars=NVARS, max_terms=5):
    return st.dictionaries(exps(nvars), coeffs, max_size=max_terms).map(
        lambda t: MPoly(nvars, t)
    )


ANY = polys(INTS | FRACS)
INT = polys(INTS)


def assert_exact(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction), type(c)
        assert c


def assert_int(p):
    assert all(type(c) is int for c in p.terms.values()), p.terms


def ref(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


def clean(d):
    return {e: c for e, c in d.items() if c}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return clean(out)


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return clean(out)


def ref_derivative(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def ref_divide(p, d):
    """Long division in graded lex, the leading term found by a full scan."""

    def key(e):
        return (sum(e), e)

    lead = max(d, key=key)
    rem, quo = dict(p), {}
    while rem:
        e = max(rem, key=key)
        qe = tuple(a - b for a, b in zip(e, lead))
        if min(qe, default=0) < 0:
            return None
        qc = rem[e] / d[lead]
        quo[qe] = qc
        rem = ref_add(rem, {tuple(a + b for a, b in zip(qe, de)): -qc * dc for de, dc in d.items()})
    return quo


@settings(max_examples=150, deadline=None)
@given(ANY, ANY, st.integers(0, NVARS - 1))
def test_ring_operations_match_fraction_reference(p, q, i):
    for result, expected in (
        (p + q, ref_add(ref(p), ref(q))),
        (p - q, ref_add(ref(p), {e: -c for e, c in ref(q).items()})),
        (p * q, ref_mul(ref(p), ref(q))),
        (p.derivative(i), ref_derivative(ref(p), i)),
    ):
        assert_exact(result)
        assert ref(result) == expected


@settings(max_examples=150, deadline=None)
@given(ANY, ANY.filter(bool), ANY)
def test_divide_exact_matches_fraction_reference(q, d, r):
    exact = q * d
    got = exact.divide_exact(d)
    assert got is not None
    assert_exact(got)
    assert ref(got) == clean(ref(q))
    # a perturbed dividend divides exactly when the reference division says so
    p = exact + r
    got = p.divide_exact(d)
    expected = ref_divide(ref(p), ref(d))
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert_exact(got)
        assert ref(got) == expected


@settings(max_examples=100, deadline=None)
@given(INT, INT, st.integers(0, NVARS - 1))
def test_integer_inputs_give_int_coefficients(p, q, i):
    results = [p + q, p - q, p * q, -p, p * 3, p ** 2, p.derivative(i)]
    if q:
        results.append((p * q).divide_exact(q))
    for result in results:
        assert_int(result)


def test_integral_values_are_stored_as_int():
    p = MPoly(1, {(1,): Fraction(4, 2), (0,): True, (2,): Fraction(1, 2)})
    assert [type(c) for _, c in p.sorted_terms()] == [Fraction, int, int]
    assert type(MPoly(1, {(1,): 2}).divide_exact(MPoly(1, {(0,): 4})).terms[(1,)]) is Fraction


ONE_TERM = polys(INTS | FRACS, max_terms=1).filter(bool)


def integral_fractions(p):
    """p with every coefficient a Fraction, integral ones included, as
    arithmetic on Fractions leaves them."""
    return p * Fraction(1, 2) * 2


@settings(max_examples=150, deadline=None)
@given(ANY, ONE_TERM, ANY, st.booleans(), st.booleans())
def test_one_term_product_and_quotient_match_reference(p, m, r, p_frac, m_frac):
    # a one-term operand shifts exponents instead of taking the general
    # product, and a one-term divisor divides term by term
    if p_frac:
        p = integral_fractions(p)
    if m_frac:
        m = integral_fractions(m)
    expected = ref_mul(ref(p), ref(m))
    for product in (p * m, m * p):
        assert_exact(product)
        assert ref(product) == expected
    assert (p * m).divide_exact(m) == p
    dividend = p * m + r
    got = dividend.divide_exact(m)
    want = ref_divide(ref(dividend), ref(m))
    if want is None:
        assert got is None
    else:
        assert_exact(got)
        assert ref(got) == want


# primitive integer forms normal.s + const in three variables: zero, large
# and mixed-sign normal entries, zero and nonzero constants
LINEAR = st.tuples(st.lists(st.integers(-4, 4), min_size=3, max_size=3), st.integers(-5, 5))
LINEAR = LINEAR.filter(lambda f: any(f[0]) and math.gcd(*f[0], f[1]) == 1)


@settings(max_examples=200, deadline=None)
@given(polys(INTS, nvars=3), LINEAR, polys(INTS, nvars=3, max_terms=2))
def test_divide_linear_matches_divide_exact(q, form, r):
    normal, const = form
    h = linear_form(normal, const)
    got = _divide_linear((q * h).terms, normal, const)
    assert got is not None
    assert_int(MPoly(3, got))
    assert got == q.terms
    # a perturbed dividend: the integer division fails exactly when the
    # rational one does, since an exact quotient by a primitive form is integral
    p = q * h + r
    got = _divide_linear(p.terms, normal, const)
    want = p.divide_exact(h)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want.terms
