"""The library surface is what the pipeline and the acceptance criteria reach.

The bundled corpus and the acceptance tests C01-C10 run in-process under
``sys.setprofile``; every ``def`` in src/bsideal that none of them enters
must be declared in UNREACHED with its reason:

- ``bench-pinned``: bench/tracing.py binds it by name (BENCH_ONLY);
- ``guard``: it keeps a value type safe to use: it refuses mutation, or
  makes hash and truth agree with ``==``, although the library never asks;
- ``debug``: it only serves a developer at a prompt;
- ``input-driven``: the pipeline calls it on inputs the corpus does not hold;
- ``import-time``: it runs while the package is imported, before the
  profiler starts.

A public function or method that nothing reaches fails here until it is
deleted or declared.

A def counts as reached only when its frame starts under the profiler.  A
def behind a ``functools`` cache starts no frame on a cache hit, so it may
read as unreached when an earlier test in the same process already called
it with the same arguments: the result then depends on test order.
"""

import ast
import importlib.util
import inspect
import os
import re
import sys

import bsideal
from bsideal.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(os.path.abspath(bsideal.__file__))

UNREACHED = {
    "hyperplanes.primitive_slopes": "bench-pinned",
    "linalg.rref_rational": "bench-pinned",
    "linalg.solve": "bench-pinned",
    "polynomials.MPoly.__setattr__": "guard",
    "polynomials.MPoly.__bool__": "guard",
    "polynomials.Record.__setattr__": "guard",
    "polynomials.MPoly.__repr__": "debug",
    "polynomials.Record.__repr__": "debug",
    "polynomials.MPoly.__sub__": "input-driven",
    "polynomials.MPoly.constant_value": "input-driven",
    "polynomials._repack": "input-driven",
    "polynomials._Parser.error": "input-driven",
    "polynomials.Record.__init_subclass__": "import-time",
}
REASONS = {"bench-pinned", "guard", "debug", "input-driven", "import-time"}


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"surface_{name}", os.path.join(TESTS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_defs():
    """{(file, first line of the code object): "module.Qual.name"} for every
    def in the package; a decorated def's code starts at its decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = name
                walk(child, path, name)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")

    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py") and fname != "__init__.py":
            path = os.path.join(PACKAGE, fname)
            with open(path, encoding="utf-8") as fh:
                walk(ast.parse(fh.read()), path, fname[:-3])
    return found


def test_unreached_defs_are_declared(capsys):
    acceptance = load("test_acceptance")
    criteria = [getattr(acceptance, n) for n in dir(acceptance) if re.match(r"test_c\d\d_", n)]
    assert len(criteria) == 10
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert main(["run", "--seed-corpus"]) == 0
        for test in criteria:
            capsys.readouterr()  # C10 compares what it captures itself
            fixtures = inspect.signature(test).parameters
            test(*([capsys] if "capsys" in fixtures else []))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    defs = package_defs()
    unreached = {name for key, name in defs.items() if key not in entered}
    assert unreached == set(UNREACHED)
    assert set(UNREACHED.values()) <= REASONS
    bench_only = load("test_tracing_sites").BENCH_ONLY
    assert {n for n, why in UNREACHED.items() if why == "bench-pinned"} == bench_only
