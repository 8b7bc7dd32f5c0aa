"""Resolution-graph formulas for monomial collections."""

import random
from fractions import Fraction

import pytest

from bsideal.hyperplanes import extract_hyperplanes, linear_form
from bsideal.polynomials import MPoly, parse_poly, s_names
from bsideal.snc import (
    EmptySupportError,
    GraphComponent,
    MonZeta,
    ResolutionGraph,
    default_x_names,
    graph_from_exponents,
    mon_zeta,
    reweight,
    sabbah_specialize,
    slope_set,
    snc_b_element,
    snc_certificate,
    support_components,
    support_loci,
)
from bsideal.solver import verify
from bsideal.torus import TorusCoset


def graph(weight_rows, chis=None):
    chis = chis or [0] * len(weight_rows)
    return ResolutionGraph(
        len(weight_rows[0]),
        tuple(GraphComponent(tuple(w), c) for w, c in zip(weight_rows, chis)),
    )


X_XY = graph([(1, 1), (0, 1)])


def test_default_x_names():
    assert default_x_names(2) == ["x", "y"]
    assert default_x_names(4) == ["x1", "x2", "x3", "x4"]


def test_component_validation():
    with pytest.raises(ValueError):
        GraphComponent((0, 0), 1)
    with pytest.raises(ValueError):
        GraphComponent((1, -1), 0)
    GraphComponent((1, 0), -2)  # negative chi is legitimate


def test_graph_validation_and_json_roundtrip():
    with pytest.raises(ValueError):
        ResolutionGraph(2, (GraphComponent((1,), 0),))
    g = graph([(1, 1), (0, 2)], [1, -1])
    assert ResolutionGraph.from_json_dict(g.to_json_dict()) == g
    assert g.to_json_dict() == {
        "r": 2,
        "components": [{"L": [1, 1], "chi": 1}, {"L": [0, 2], "chi": -1}],
    }
    with pytest.raises(ValueError):
        ResolutionGraph.from_json_dict({"components": []})


def test_maps_into():
    assert X_XY.maps_into(0) == frozenset({0, 1})
    assert X_XY.maps_into(1) == frozenset({1})


def test_graph_from_exponents():
    g = graph_from_exponents([[1, 0], [1, 1]])
    assert g == X_XY
    # all-zero coordinate columns are dropped
    g = graph_from_exponents([[1, 0], [2, 0]])
    assert g == graph([(1, 2)])


def test_support_components():
    assert support_components(X_XY, (1, 0)) == (0,)
    assert support_components(X_XY, (0, 1)) == (0, 1)
    with pytest.raises(EmptySupportError):
        support_components(X_XY, (0, 0))


def test_slope_set_frozen_and_twist_scale_invariant():
    assert slope_set(X_XY, (1, 0)) == ((1, 1),)
    assert slope_set(X_XY, (0, 1)) == ((0, 1), (1, 1))
    g = graph([(2, 4), (0, 2)])
    assert slope_set(g, (1, 1)) == ((0, 1), (1, 2))
    rng = random.Random(418)
    for _ in range(15):
        a = (rng.randint(0, 2), rng.randint(0, 2))
        if a == (0, 0):
            a = (0, 1)
        for l in (2, 3):
            la = tuple(l * x for x in a)
            assert slope_set(X_XY, a) == slope_set(X_XY, la)


def test_snc_b_element_frozen():
    # component (1,1) has L.a = 2 and contributes two factors
    b = snc_b_element(X_XY, (1, 1))
    want = (
        linear_form((1, 1), 1)
        * linear_form((1, 1), 2)
        * linear_form((0, 1), 1)
    )
    assert b == want
    # support restricted to the first axis
    assert snc_b_element(X_XY, (1, 0)) == linear_form((1, 1), 1)


def test_snc_certificate_example():
    cert = snc_certificate([[1, 0], [1, 1]], (1, 1))
    assert verify(cert)
    assert cert.b == snc_b_element(X_XY, (1, 1))
    assert cert.to_json_dict()["P"] == "dx^2*dy"


def test_snc_certificate_random():
    rng = random.Random(419)
    for _ in range(10):
        r = rng.randint(1, 2)
        n = rng.randint(1, 3)
        exps = [[rng.randint(0, 2) for _ in range(n)] for _ in range(r)]
        for row in exps:
            if all(v == 0 for v in row):
                row[rng.randrange(n)] = 1
        a = tuple(rng.randint(0, 2) for _ in range(r))
        if all(x == 0 for x in a):
            a = (1,) * r
        cert = snc_certificate(exps, a)
        assert verify(cert)
        g = graph_from_exponents(exps)
        assert cert.b == snc_b_element(g, a)
        factors, rem = extract_hyperplanes(cert.b)
        assert rem.is_constant()
        assert {h.normal for h, _ in factors} == set(slope_set(g, a))


def test_mon_zeta_frozen():
    g = graph([(1,), (2,)], [1, -2])
    z = mon_zeta(g)
    assert z.to_json_dict() == {
        "factors": [{"v": [1], "exp": 1}, {"v": [2], "exp": -2}]
    }
    assert z.text() == "(1 - t)^1 * (1 - t^2)^-2"
    assert mon_zeta(graph([(1, 1)])).text() == "1"


def test_mon_zeta_merges_duplicates():
    z = MonZeta.make(1, [((2,), 1), ((2,), 2), ((1,), 0)])
    assert z.to_json_dict() == {"factors": [{"v": [2], "exp": 3}]}
    with pytest.raises(ValueError):
        MonZeta.make(2, [((0, 0), 1)])


def test_sabbah_specialize_frozen():
    z = MonZeta.make(2, [((1, 2), 3)])
    got = sabbah_specialize(z, (2, 1))
    assert got == MonZeta.make(1, [((4,), 3)])
    with pytest.raises(ValueError):
        sabbah_specialize(z, (0, 1))


def test_sabbah_matches_reweight_random():
    rng = random.Random(420)
    for _ in range(20):
        r = rng.randint(1, 3)
        comps = []
        for _ in range(rng.randint(1, 3)):
            w = [rng.randint(0, 3) for _ in range(r)]
            if all(v == 0 for v in w):
                w[rng.randrange(r)] = 1
            comps.append((tuple(w), rng.randint(-2, 2)))
        g = graph([c[0] for c in comps], [c[1] for c in comps])
        m = tuple(rng.randint(1, 4) for _ in range(r))
        assert sabbah_specialize(mon_zeta(g), m) == mon_zeta(reweight(g, m))


def test_reweight_validation():
    with pytest.raises(ValueError):
        reweight(X_XY, (1, 0))
    with pytest.raises(ValueError):
        reweight(X_XY, (1,))


def test_support_loci_frozen():
    one = Fraction(0)
    assert support_loci(X_XY, (1, 0)) == (
        TorusCoset.make([((1, 1), one)]),
    )
    assert support_loci(X_XY, (0, 1)) == (
        TorusCoset.make([((0, 1), one)]),
        TorusCoset.make([((1, 1), one)]),
    )
    assert support_loci(X_XY, (1, 1)) == support_loci(X_XY, (0, 1))
    with pytest.raises(EmptySupportError):
        support_loci(X_XY, (0, 0))


def test_support_loci_expands_torsion():
    g = graph([(2,)], [1])
    got = support_loci(g, (1,))
    assert got == (
        TorusCoset.make([((1,), Fraction(0))]),
        TorusCoset.make([((1,), Fraction(1, 2))]),
    )
