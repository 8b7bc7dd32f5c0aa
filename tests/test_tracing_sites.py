"""The traced benchmark rebinds library names from outside; they must exist.

bench/tracing.py patches each ``(module, attr)`` in its SITES table plus
``cli.EntryRunner.run``.  A deleted or renamed name would only show up as a
failing ``--trace 1`` run, so it is checked here.  A site the pipeline no
longer calls reads 0 in every traced run; those are declared in BENCH_ONLY.
"""

import importlib
import importlib.util
import json
import os

import pytest

# traced names the pipeline never calls; the benchmark still binds them
BENCH_ONLY = {"linalg.solve", "linalg.rref_rational", "hyperplanes.primitive_slopes"}

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    if not os.path.exists(TRACING):
        pytest.skip("bench/tracing.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sites_resolve():
    tracing = load_tracing()
    assert tracing.SITES
    for mod, attr, _ in tracing.SITES:
        owner = importlib.import_module(f"bsideal.{mod}")
        assert callable(getattr(owner, attr, None)), f"bsideal.{mod}.{attr}"
    cli = importlib.import_module("bsideal.cli")
    assert callable(cli.EntryRunner.run)


def test_untraced_sites_are_declared(tmp_path, capsys):
    # every corpus entry has a resolution graph, and its hyperplanes divide
    # out the whole of the solved b, so extraction never searches there; a
    # graph-less entry keeps the search, and ratroots.rational_roots, reached
    cusp = tmp_path / "cusp.json"
    cusp.write_text(json.dumps({
        "id": "cusp",
        "variables": ["x", "y"],
        "F": ["x^2 + y^3"],
        "a": [1],
        "bounds": {"order": 3, "x_degree": 3, "s_degree": 2, "b_degree": 3},
        "tasks": ["bs-find", "decompose"],
    }))
    tracing = load_tracing()
    modules = {
        name: importlib.import_module(f"bsideal.{name}")
        for name in ("cli", "solver", "hyperplanes", "linalg")
    }
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert modules["cli"].main(["run", "--seed-corpus", "--json", str(cusp)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans, _ = tracer.take()
    called = {span[0] for span in spans}
    assert {name for _, _, name in tracing.SITES} - called == BENCH_ONLY
