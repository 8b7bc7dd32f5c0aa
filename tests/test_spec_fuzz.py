"""Fuzzed problem input: polynomials, entries and files each load or are
rejected with PolyParseError / SpecError, and `bsideal run` never shows a
traceback."""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bsideal.cli import ProblemSpec, SpecError, load_specs, main  # noqa: E402
from bsideal.polynomials import MPoly, PolyParseError, parse_poly  # noqa: E402

NAMES = ["x", "y"]

# tokens of the expression grammar, near misses (other digits, a float, an
# unknown name, a stray operator) and characters outside it
TOKENS = st.sampled_from(
    ["x", "y", "z", "x1", "0", "1", "2", "3", "9", "+", "-", "*", "/", "^", "(", ")",
     " ", "²", "٣", "½", "1.5", "**", "_", "s", "\t", "é", "∂"]
)
EXPRESSIONS = st.lists(TOKENS, max_size=10).map("".join) | st.text(max_size=8)

# small well-formed polynomials in x and y, so a run gets past parsing
MONOMIAL = st.builds(
    lambda c, i, j: f"{c}*x^{i}*y^{j}",
    st.sampled_from([-2, -1, 1, 3]), st.integers(0, 2), st.integers(0, 2),
)
SMALL_POLY = st.lists(MONOMIAL, min_size=1, max_size=2).map(" + ".join)

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
BOUND = st.integers(0, 1) | st.sampled_from([-1, True, 1.0, "1"])
FIELDS = {
    "id": st.sampled_from(["e", "e-1", "bad id", "", "é"]) | JSON,
    "variables": st.sampled_from([NAMES, ["x"], ["x", "x"], ["s", "y"], ["x", "dx"], [], ["1x"]]) | JSON,
    "F": st.lists(SMALL_POLY | EXPRESSIONS, min_size=1, max_size=2) | JSON,
    "a": st.lists(st.integers(-1, 2), min_size=1, max_size=2) | JSON,
    "bounds": st.fixed_dictionaries(
        {"order": BOUND, "x_degree": BOUND, "s_degree": BOUND, "b_degree": BOUND}
    ) | JSON,
    "resolution_graph": st.none() | st.fixed_dictionaries(
        {"r": st.integers(1, 2),
         "components": st.lists(st.fixed_dictionaries(
             {"L": st.lists(st.integers(0, 2), min_size=2, max_size=2)}), max_size=2)}
    ) | JSON,
    "tasks": st.sampled_from(["all", ["bs-find"], ["decompose"], ["snc", "zeta"], ["exp-compare"],
                              ["bs-verify"], [], ["nonsense"]]) | JSON,
}
# an entry draws each field from its near misses; a few fields are dropped
ENTRIES = st.fixed_dictionaries(FIELDS, optional={"extra": JSON}).flatmap(
    lambda e: st.sets(st.sampled_from(sorted(e)), max_size=2).map(
        lambda drop: {k: v for k, v in e.items() if k not in drop}
    )
)
DOCUMENTS = ENTRIES | st.lists(ENTRIES, max_size=2) | JSON
# well-formed entries in a small box, so a run reaches the solver
VALID = st.lists(SMALL_POLY, min_size=1, max_size=2).flatmap(
    lambda F: st.fixed_dictionaries({
        "id": st.just("e"),
        "variables": st.just(NAMES),
        "F": st.just(F),
        "a": st.just([1] * len(F)),
        "bounds": st.fixed_dictionaries(
            {"order": st.integers(1, 2), "x_degree": st.integers(0, 1),
             "s_degree": st.integers(0, 1), "b_degree": st.integers(1, 3)}
        ),
        "tasks": st.sampled_from([["bs-find"], ["bs-verify"], ["decompose"], ["exp-compare"]]),
    })
)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_parse_poly_parses_or_raises_parse_error(text):
    try:
        p = parse_poly(text, NAMES)
    except PolyParseError:
        return
    assert isinstance(p, MPoly) and p.nvars == len(NAMES)


@settings(max_examples=200, deadline=None)
@given(ENTRIES | JSON)
def test_problem_spec_loads_or_raises_spec_error(data):
    try:
        ProblemSpec(data, "fuzz")
    except SpecError:
        pass


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS.map(lambda d: json.dumps(d).encode()) | st.binary(max_size=12))
def test_load_specs_loads_or_raises_spec_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            load_specs([path])
        except SpecError:
            pass


@settings(max_examples=40, deadline=None)
@given(VALID | ENTRIES)
def test_run_exits_with_a_code_and_no_traceback(entry):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
