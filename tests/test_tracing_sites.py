"""The traced benchmark rebinds library names from outside; they must exist.

bench/tracing.py patches each ``(module, attr)`` in its SITES table plus
``cli.EntryRunner.run``.  A deleted or renamed name would only show up as a
failing ``--trace 1`` run, so it is checked here.
"""

import importlib
import importlib.util
import os

import pytest

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
