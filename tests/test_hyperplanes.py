import random
from fractions import Fraction

import pytest

from bsideal import hyperplanes
from bsideal.hyperplanes import (
    Hyperplane,
    _restrict_to_line,
    check_translation_union,
    extract_hyperplanes,
    linear_form,
    primitive_slopes,
)
from bsideal.polynomials import MPoly, parse_poly, s_names


def sp(text, r):
    return parse_poly(text, s_names(r))


def test_linear_form():
    assert linear_form((1, 2), Fraction(1, 2)) == sp("s1 + 2*s2 + 1/2", 2)
    assert linear_form((0, 1)) == sp("s2", 2)


def test_canonical_scales_to_primitive():
    h = Hyperplane.canonical((2, 4), 1)
    assert h.normal == (1, 2)
    assert h.intercept == Fraction(1, 2)
    h = Hyperplane.canonical((-1, -2), -3)
    assert h.normal == (1, 2)
    assert h.intercept == 3


def test_constructor_rejects_bad_normals():
    with pytest.raises(ValueError):
        Hyperplane((2, 4), Fraction(1))
    with pytest.raises(ValueError):
        Hyperplane((0, 0), Fraction(1))
    with pytest.raises(ValueError):
        Hyperplane((-1, 2), Fraction(1))


def test_canonical_idempotent_under_scaling():
    rng = random.Random(413)
    for _ in range(30):
        normal = tuple(rng.randint(-3, 3) for _ in range(3))
        if all(v == 0 for v in normal):
            normal = (1, 0, 0)
        intercept = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        h = Hyperplane.canonical(normal, intercept)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = Hyperplane.canonical(tuple(v * c for v in h.normal), h.intercept * c)
        assert scaled == h


def test_extract_univariate_with_multiplicity():
    # (s+1)^2 (2s+1): content 2 lands in the remainder
    p = sp("(s + 1)^2 * (2*s + 1)", 1)
    factors, rem = extract_hyperplanes(p)
    assert factors == [
        (Hyperplane((1,), Fraction(1, 2)), 1),
        (Hyperplane((1,), Fraction(1)), 2),
    ]
    assert rem == MPoly.const(1, 2)


def test_extract_bivariate_with_nonlinear_remainder():
    p = sp("(s1 + s2 + 1)*(s1 + 2)*(s1^2 + s2^2 + 1)", 2)
    factors, rem = extract_hyperplanes(p)
    assert factors == [
        (Hyperplane((1, 0), Fraction(2)), 1),
        (Hyperplane((1, 1), Fraction(1)), 1),
    ]
    assert rem == sp("s1^2 + s2^2 + 1", 2)


def test_extract_no_linear_factors():
    p = sp("s1^2 + s2^2 + 1", 2)
    factors, rem = extract_hyperplanes(p)
    assert factors == []
    assert rem == p


def test_extract_searches_nonnegative_slopes_only():
    # mixed-sign normals are outside the searched shape; they stay in the
    # remainder instead of being silently mis-assigned
    p = sp("(s1 - s2 + 1)*(s1 + s2 + 2)", 2)
    factors, rem = extract_hyperplanes(p)
    assert factors == [(Hyperplane((1, 1), Fraction(2)), 1)]
    assert rem == sp("s1 - s2 + 1", 2)
    p = sp("s1 - s2 + 1", 2)
    assert extract_hyperplanes(p) == ([], p)
    p = sp("(s1 - s2 + 1)*(9*s1 + 2*s2 + 3)", 2)
    factors, rem = extract_hyperplanes(p)
    assert factors == [(Hyperplane((9, 2), Fraction(3)), 1)]
    assert rem == sp("s1 - s2 + 1", 2)


def test_extract_constant_and_linear_input():
    assert extract_hyperplanes(MPoly.const(2, 7)) == ([], MPoly.const(2, 7))
    factors, rem = extract_hyperplanes(sp("3*s1 + 3", 2))
    assert factors == [(Hyperplane((1, 0), Fraction(1)), 1)]
    assert rem == MPoly.const(2, 3)


def test_extract_refactors_exactly_random():
    # the graph normals of the multi-param workload: their roots on the
    # offset-0 line of one another's slopes collide
    graph_normals = [(0, 3, 1), (1, 1, 0), (2, 0, 1)]
    rng = random.Random(414)
    for _ in range(40):
        r = rng.randint(1, 4)
        # rational content such as 7/5 lands in the remainder
        p = MPoly.const(r, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        built: dict[Hyperplane, int] = {}
        forms = []
        for _ in range(rng.randint(1, 8)):
            if forms and rng.random() < 0.3:
                normal, intercept = rng.choice(forms)
            elif r == 3 and rng.random() < 0.6:
                normal, intercept = rng.choice(graph_normals), Fraction(rng.randint(1, 4))
            else:
                normal = tuple(rng.randint(0, 12) for _ in range(r))
                if all(v == 0 for v in normal):
                    normal = (1,) + (0,) * (r - 1)
                intercept = Fraction(rng.randint(1, 6), rng.randint(1, 2))
            forms.append((normal, intercept))
            p = p * linear_form(normal, intercept)
            h = Hyperplane.canonical(normal, intercept)
            built[h] = built.get(h, 0) + 1
        if rng.random() < 0.4:
            p = p * (MPoly.variable(r, 0) ** 2 + 1)
        factors, rem = extract_hyperplanes(p)
        assert dict(factors) == built
        rebuilt = rem
        for h, m in factors:
            rebuilt = rebuilt * h.poly() ** m
        assert rebuilt == p


def test_extract_with_candidates_matches_search():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def problems(draw):
        r = draw(st.integers(1, 3))
        slope = st.lists(st.integers(0, 4), min_size=r, max_size=r).filter(any)
        intercept = st.fractions(min_value=-3, max_value=5, max_denominator=3)
        forms = draw(st.lists(
            st.tuples(slope, intercept, st.integers(1, 3)), max_size=4
        ))
        p = MPoly.const(r, draw(st.fractions(min_value=-9, max_value=9).filter(bool)))
        for normal, b, m in forms:
            p = p * linear_form(normal, b) ** m
        if draw(st.booleans()):
            p = p * (MPoly.variable(r, 0) ** 2 + MPoly.variable(r, r - 1) ** 2 + 1)
        # non-factors may have slopes of either sign; duplicates and a factor
        # listed once that divides twice come from the drawing
        other = st.builds(
            Hyperplane.canonical,
            st.lists(st.integers(-2, 4), min_size=r, max_size=r).filter(any),
            intercept,
        )
        true = [Hyperplane.canonical(normal, b) for normal, b, _ in forms]
        pick = st.one_of(st.sampled_from(true), other) if true else other
        return p, draw(st.lists(pick, max_size=8))

    @settings(max_examples=80, deadline=None)
    @given(problems())
    def check(problem):
        p, candidates = problem
        assert extract_hyperplanes(p, candidates) == extract_hyperplanes(p)

    check()


def test_extract_skips_candidates_with_mixed_slopes():
    # s1 - s2 + 1 divides p, but its slope has both signs: it stays in the
    # remainder, as it does without candidates
    p = sp("(s1 - s2 + 1) * (s1 + 1)", 2)
    mixed = Hyperplane((1, -1), Fraction(1))
    assert extract_hyperplanes(p, [mixed]) == extract_hyperplanes(p)
    assert extract_hyperplanes(p)[0] == [(Hyperplane((1, 0), Fraction(1)), 1)]


def test_extract_finds_slopes_of_any_size():
    p = sp("9*s1 + s2 + 1", 2)
    factors, rem = extract_hyperplanes(p)
    assert factors == [(Hyperplane((9, 1), Fraction(1)), 1)]
    assert rem == MPoly.const(2, 1)
    p = sp("(40*s1 + 3*s3 + 1)*(s2 + 17*s3)*s1", 3)
    factors, rem = extract_hyperplanes(p)
    assert factors == [
        (Hyperplane((0, 1, 17), Fraction(0)), 1),
        (Hyperplane((1, 0, 0), Fraction(0)), 1),
        (Hyperplane((40, 0, 3), Fraction(1)), 1),
    ]
    assert rem == MPoly.const(3, 1)


def test_extract_matches_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(415)
    for _ in range(15):
        r = rng.randint(1, 4)
        names = s_names(r)
        syms = sympy.symbols(names)
        text = str(rng.randint(1, 4))
        for _ in range(rng.randint(1, 4)):
            normal = [rng.randint(-2 if rng.random() < 0.3 else 0, 12) for _ in range(r)]
            if all(v == 0 for v in normal):
                normal[0] = 1
            terms = [f"{v}*{n}" for v, n in zip(normal, names) if v]
            text += f"*({' + '.join(terms)} + {rng.randint(0, 6)}/{rng.randint(1, 3)})"
        if rng.random() < 0.4:
            text += f"*({names[0]}^2 + {names[-1]}^2 + 1)"
        factors, _ = extract_hyperplanes(sp(text, r))
        want: dict[Hyperplane, int] = {}
        for f, m in sympy.factor_list(sympy.sympify(text.replace("^", "**")), *syms)[1]:
            poly = sympy.Poly(f, *syms)
            if poly.total_degree() != 1:
                continue
            normal = [Fraction(str(poly.coeff_monomial(x))) for x in syms]
            h = Hyperplane.canonical(normal, Fraction(str(poly.coeff_monomial(1))))
            if all(v >= 0 for v in h.normal):
                want[h] = want.get(h, 0) + m
        assert dict(factors) == want


def test_restrict_to_line_matches_sympy_substitution():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(416)
    for _ in range(30):
        r = rng.randint(1, 3)
        syms = sympy.symbols(s_names(r))
        terms = {
            tuple(rng.randint(0, 4) for _ in range(r)): rng.choice([-1, 1]) * rng.randint(1, 9)
            for _ in range(rng.randint(1, 6))
        }
        offset = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(r)]
        direction = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(r)]
        p = sum(c * sympy.prod(x**k for x, k in zip(syms, e)) for e, c in terms.items())
        line = sympy.expand(p.subs({x: o + d * t for x, o, d in zip(syms, offset, direction)}))
        want = [int(line.coeff(t, j)) for j in range(max(map(sum, terms)) + 1)]
        assert _restrict_to_line(terms, offset, direction) == want


def test_extract_scans_past_offsets_on_zero_lines(monkeypatch):
    # s1 - s2 is constant on every line of slope (1, 1), and the factors
    # s1 - s2 and s1 - s2 + 1 vanish on those through (0, 0) and (0, 1):
    # the scan must go on to a third offset to find s1 + s2 + 1
    lines = []

    def restrict(terms, offset, direction):
        coeffs = _restrict_to_line(terms, offset, direction)
        if len(offset) == 2:  # not those of the top-form recursion, in s2 alone
            lines.append((tuple(offset), tuple(direction), any(coeffs)))
        return coeffs

    monkeypatch.setattr(hyperplanes, "_restrict_to_line", restrict)
    factors, rem = extract_hyperplanes(sp("(s1 - s2)*(s1 - s2 + 1)*(s1 + s2 + 1)", 2))
    assert factors == [(Hyperplane((1, 1), Fraction(1)), 1)]
    assert rem == sp("s1^2 - 2*s1*s2 + s2^2 + s1 - s2", 2)
    assert [line[0] for line in lines[:2]] == [(0, 0), (0, 1)]
    assert [line[1:] for line in lines] == [((1, 1), False)] * 2 + [((1, 1), True)]


def test_primitive_slopes_small():
    assert primitive_slopes(1, 3) == [(1,)]
    got = primitive_slopes(2, 2)
    assert (1, 1) in got and (1, 2) in got and (2, 1) in got and (2, 2) not in got


def test_translate_moves_zero_set():
    h = Hyperplane((1, 2), Fraction(1))
    t = h.translate((3, -1))
    # alpha in Z(h) implies alpha + k in Z(t)
    alpha = (Fraction(-1), Fraction(0))
    assert sum(Fraction(v) * x for v, x in zip(h.normal, alpha)) + h.intercept == 0
    moved = (alpha[0] + 3, alpha[1] - 1)
    assert sum(Fraction(v) * x for v, x in zip(t.normal, moved)) + t.intercept == 0
    assert t.intercept == Fraction(0)


def test_structure_flags():
    ok = Hyperplane((1, 1), Fraction(1, 2))
    assert ok.structure_flags((1, 1)) == (True, True, True)
    assert Hyperplane((1, -1), Fraction(1)).structure_flags((1, 1)) == (False, True, True)
    assert Hyperplane((1, 0), Fraction(0)).structure_flags((1, 1)) == (True, False, True)
    # active index: normal supported only where the twist vanishes
    assert Hyperplane((0, 1), Fraction(1)).structure_flags((1, 0)) == (True, True, False)


def test_check_translation_union():
    single = [Hyperplane((0, 1), Fraction(1)), Hyperplane((1, 1), Fraction(1))]
    multi = [
        Hyperplane((0, 1), Fraction(1)),
        Hyperplane((0, 1), Fraction(2)),
        Hyperplane((1, 1), Fraction(1)),
        Hyperplane((1, 1), Fraction(2)),
    ]
    assert check_translation_union(multi, single, axis=1, l=2)
    assert not check_translation_union(multi[:3], single, axis=1, l=2)
    # axis with zero slope contributes coincident copies
    single_x = [Hyperplane((0, 1), Fraction(1))]
    assert check_translation_union(single_x, single_x, axis=0, l=3)
    with pytest.raises(ValueError):
        check_translation_union(multi, single, axis=1, l=0)


def test_sorted_orders_by_normal_then_intercept():
    hs = [
        Hyperplane((1, 1), Fraction(2)),
        Hyperplane((0, 1), Fraction(1)),
        Hyperplane((1, 1), Fraction(1)),
    ]
    got = sorted(hs)
    assert got == [hs[1], hs[2], hs[0]]


def test_text():
    assert Hyperplane((1, 2), Fraction(1, 2)).text() == "s1 + 2*s2 + 1/2"
