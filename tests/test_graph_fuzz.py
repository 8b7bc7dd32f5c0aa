"""Fuzzed resolution graphs: each loads or is rejected, never a traceback;
and the factors read off a graph are those its b-element factors into."""

import contextlib
import io
import json
import os
import tempfile
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from bsideal.cli import EXIT_BOUNDS, EXIT_OK, EXIT_USAGE, main  # noqa: E402
from bsideal.hyperplanes import extract_hyperplanes  # noqa: E402
from bsideal.snc import (  # noqa: E402
    GraphComponent,
    ResolutionGraph,
    snc_b_element,
    snc_degree,
    snc_factors,
)

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=2)
)
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=6,
)
SMALL = st.integers(-1, 3)
# near-miss graphs: the right keys (and some wrong ones) with any values
LOOSE_COMPONENT = st.dictionaries(
    st.sampled_from(["L", "chi", "Chi"]),
    st.lists(SMALL | JSON, max_size=3) | SMALL | JSON,
    max_size=3,
)
LOOSE = st.dictionaries(
    st.sampled_from(["r", "components", "extra"]),
    SMALL | st.lists(LOOSE_COMPONENT, max_size=3) | JSON,
    max_size=3,
)
# well-formed graphs for two functions, so the run gets past parsing
WELL_FORMED = st.fixed_dictionaries(
    {
        "r": st.just(2),
        "components": st.lists(
            st.fixed_dictionaries(
                {"L": st.lists(st.integers(0, 3), min_size=2, max_size=2)},
                optional={"chi": st.integers(-3, 3)},
            ),
            max_size=3,
        ),
    }
)
GRAPHS = WELL_FORMED | LOOSE | JSON


@settings(max_examples=150, deadline=None)
@given(GRAPHS)
def test_graph_parser_loads_or_raises_value_error(data):
    try:
        graph = ResolutionGraph.from_json_dict(data)
    except ValueError:
        return
    assert ResolutionGraph.from_json_dict(graph.to_json_dict()) == graph


@settings(max_examples=60, deadline=None)
@given(GRAPHS)
def test_run_with_fuzzed_graph_never_crashes(data):
    entry = {
        "id": "fuzz",
        "variables": ["x", "y"],
        "F": ["x", "y"],
        "a": [1, 1],
        "bounds": {"order": 2, "x_degree": 0, "s_degree": 0, "b_degree": 2},
        "tasks": ["snc", "zeta"],
        "resolution_graph": data,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", path])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BOUNDS)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert "parse-error" in err.getvalue()


@st.composite
def graphs_with_twist(draw):
    """A graph with r <= 3, up to 4 components with L entries in 0..3, and a
    twist a whose b-element has degree 1..10; a component that would push
    the degree past 10 is left out."""
    r = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 3)] * r).filter(any)
    a = draw(st.tuples(*[st.integers(0, 2)] * r).filter(any))
    comps, degree = [], 0
    for weights in draw(st.lists(row, min_size=1, max_size=4)):
        la = sum(map(mul, weights, a))
        if degree + la <= 10:
            comps.append(GraphComponent(weights, 0))
            degree += la
    assume(degree > 0)
    return ResolutionGraph(r, tuple(comps)), a


def _graph(*rows):
    return ResolutionGraph(len(rows[0]), tuple(GraphComponent(w, 0) for w in rows))


@settings(max_examples=100, deadline=None)
@given(graphs_with_twist())
# components whose factors merge: s + 1 from L = (1) and from L = (2), and
# s1 + s2 + 1 from L = (1, 1) and from L = (2, 2)
@example((_graph((1,), (2,)), (1,)))
@example((_graph((1, 1), (2, 2), (0, 1)), (1, 1)))
def test_graph_factors_are_the_factors_of_the_b_element(graph_and_twist):
    graph, a = graph_and_twist
    b = snc_b_element(graph, a)
    pairs, rem = extract_hyperplanes(b)
    assert pairs == snc_factors(graph, a)
    assert rem.is_constant()
    assert snc_degree(graph, a) == b.total_degree() == sum(m for _, m in pairs)
