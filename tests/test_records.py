"""The value records: equality, hashing, order, immutability and checks.

SolveBounds, BSCertificate, GraphComponent, ResolutionGraph, MonZeta,
Hyperplane, TorusCoset, GermContext and GermElement are `Record`s:
immutable, compared and hashed by the tuple of their fields (GermContext
by its x names and F only), and equal only to records of their own class.
Each has one constructor, which checks its fields and, for MonZeta and
TorusCoset, stores them in canonical form.
"""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bsideal
from bsideal.hyperplanes import Hyperplane
from bsideal.polynomials import MPoly, Record
from bsideal.snc import (
    GraphComponent,
    MonZeta,
    ResolutionGraph,
    graph_from_exponents,
    reweight,
    sabbah_specialize,
    snc_certificate,
)
from bsideal.solver import BSCertificate, SolveBounds
from bsideal.torus import TorusCoset
from bsideal.weyl import GermContext


def fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def certificate():
    ctx = GermContext(["x", "y"], [MPoly(2, {(1, 0): 1}), MPoly(2, {(1, 1): 1})])
    cert, _ = snc_certificate(ctx, (1, 1))
    return cert


def triples():
    """Two separately built equal records of each class, and a third that
    differs from them in one field."""
    cert = certificate()
    comp = GraphComponent((1, 1), 0)
    return [
        (SolveBounds(1, 2, 3, 4), SolveBounds(1, 2, 3, 4), SolveBounds(1, 2, 3, 5)),
        (
            BSCertificate(cert.ctx, cert.a, cert.b, cert.P),
            BSCertificate(cert.ctx, tuple(cert.a), cert.b, cert.P),
            BSCertificate(cert.ctx, (1, 2), cert.b, cert.P),
        ),
        (comp, GraphComponent((1, 1), 0), GraphComponent((1, 1), 1)),
        (
            ResolutionGraph(2, (comp,)),
            ResolutionGraph(2, (GraphComponent((1, 1), 0),)),
            ResolutionGraph(2, (GraphComponent((1, 2), 0),)),
        ),
        (MonZeta(1, [((1,), 1)]), MonZeta(1, (((1,), 1),)), MonZeta(1, [((2,), 1)])),
        (Hyperplane((1, 2), Fraction(1, 2)), Hyperplane((1, 2), Fraction(1, 2)), Hyperplane((1, 2), 1)),
        (TorusCoset((1, 2), Fraction(1, 2)), TorusCoset((-1, -2), Fraction(1, 2)), TorusCoset((1, 2), 0)),
    ]


TRIPLES = triples()
CLASSES = [type(t[0]).__name__ for t in TRIPLES]


@pytest.mark.parametrize("same, twin, other", TRIPLES, ids=CLASSES)
def test_equal_fields_equal_records(same, twin, other):
    assert same == twin and not same != twin
    assert same != other and not same == other
    assert same != fields(twin) and fields(twin) != same
    if isinstance(same, BSCertificate):
        # its P is a dict, so the certificate is unhashable
        with pytest.raises(TypeError):
            hash(same)
    else:
        assert hash(same) == hash(twin) == hash(fields(same))
        assert len({same, twin, other}) == 2


@pytest.mark.parametrize("record", [t[0] for t in TRIPLES], ids=CLASSES)
def test_records_are_immutable(record):
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_two_classes_never_meet():
    h = Hyperplane((1, 2), Fraction(1, 2))
    t = TorusCoset((1, 2), Fraction(1, 2))
    assert fields(h) == fields(t)
    assert h != t and t != h
    with pytest.raises(TypeError):
        h < t  # noqa: B015
    assert len({h, t}) == 2


def test_records_sort_by_their_field_tuple():
    rng = random.Random(421)
    hyperplanes, cosets = [], []
    for _ in range(40):
        v = (rng.randint(0, 3), rng.randint(-3, 3))
        if v == (0, 0):
            v = (1, 0)
        theta = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        cosets.append(TorusCoset(v, theta))
        hyperplanes.append(Hyperplane.canonical(v, theta))
    for records in (hyperplanes, cosets):
        assert [fields(r) for r in sorted(records)] == sorted(map(fields, records))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SolveBounds(1, -1, 0, 0), "max_x_degree must be a nonnegative int"),
        (lambda: SolveBounds(1, 0, 0, "2"), "max_b_degree must be a nonnegative int"),
        (lambda: GraphComponent((0, 0), 1), "component must carry at least one f_i"),
        (lambda: GraphComponent((), 1), "component must carry at least one f_i"),
        (lambda: GraphComponent((1, -1), 0), "multiplicities must be nonnegative ints"),
        (lambda: GraphComponent(("1",), 0), "multiplicities must be nonnegative ints"),
        (lambda: GraphComponent((True,), 0), "multiplicities must be nonnegative ints"),
        (
            lambda: ResolutionGraph(2, (GraphComponent((1,), 0),)),
            "every component needs one multiplicity per f_i",
        ),
        (lambda: MonZeta(2, [((0, 0), 1)]), "bad exponent vector (0, 0)"),
        (lambda: Hyperplane((0, 0), 1), "normal vector must be nonzero"),
        (lambda: Hyperplane((), 1), "normal vector must be nonzero"),
        (lambda: Hyperplane((2, 4), 1), "normal vector must be primitive with positive lead"),
        (lambda: Hyperplane((-1, 2), 1), "normal vector must be primitive with positive lead"),
        (lambda: TorusCoset((0, 0), 0), "character must be nonzero"),
        # exact fields refuse bools and floats
        (lambda: SolveBounds(True, 0, 0, 1), "max_operator_order must be a nonnegative int"),
        (lambda: GraphComponent((2,), 0.5), "chi must be an int"),
        (lambda: Hyperplane((1,), 0.1), "expected int or Fraction, got float"),
        (lambda: TorusCoset((1,), 0.1), "expected int or Fraction, got float"),
        # and int() would truncate the float to a valid value
        (lambda: TorusCoset((0.5, 1), 0), "character entries must be ints"),
        (lambda: MonZeta(1, [((2,), 0.5)]), "exponent of (2,) must be an int"),
        (lambda: MonZeta(1, [((1.5,), 1)]), "bad exponent vector (1.5,)"),
        pytest.param(
            lambda: graph_from_exponents([(1.5, 1)]),
            "multiplicities must be nonnegative ints",
            id="graph_from_exponents-float-exponent",
        ),
        pytest.param(
            lambda: graph_from_exponents([(1, 0)], chis=[0.5, 0]),
            "chi must be an int",
            id="graph_from_exponents-float-chi",
        ),
        (
            lambda: sabbah_specialize(MonZeta(1, [((1,), 1)]), (1.5,)),
            "specialization weights must be positive ints",
        ),
        (
            lambda: reweight(ResolutionGraph(1, (GraphComponent((1,), 0),)), (1.5,)),
            "weights must be positive ints",
        ),
    ],
)
def test_checks_keep_their_messages(build, message):
    # polynomials._coerce refuses a float where a rational is due
    error = TypeError if message == "expected int or Fraction, got float" else ValueError
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_a_record_reads_every_slot_by_default():
    # a subclass that sets no _values compares, orders and hashes by all
    # of its slots
    class Pair(Record):
        __slots__ = ("left", "right")

    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
    assert Pair(1, 2) != Pair(1, 3)
    assert Pair(1, 2) < Pair(1, 3) < Pair(2, 0)


def test_hyperplane_intercept_is_a_fraction():
    h = Hyperplane((1,), 2)
    assert type(h.intercept) is Fraction and h == Hyperplane((1,), Fraction(2))


def test_germ_contexts_compare_by_names_and_F():
    x, xy = MPoly(2, {(1, 0): 1}), MPoly(2, {(1, 1): 1})
    ctx = GermContext(["x", "y"], [x, xy])
    twin = GermContext(("x", "y"), [MPoly(2, {(1, 0): 1}), MPoly(2, {(1, 1): 1})])
    assert ctx == twin and hash(ctx) == hash(twin)
    ctx.f_power((1, 1))  # fills a cache, which stays out of equality
    assert ctx == twin and hash(ctx) == hash(twin)
    assert ctx != GermContext(["x", "y"], [x, x])
    assert ctx != GermContext(["u", "v"], [x, xy])
    for name in ctx.__slots__:
        with pytest.raises(AttributeError):
            setattr(ctx, name, None)


def test_every_slotted_class_is_a_record():
    # MPoly keeps its own fast equality and hash over a dict of terms
    slotted = []
    for info in pkgutil.iter_modules(bsideal.__path__):
        module = importlib.import_module(f"bsideal.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                if "__slots__" in vars(cls) and cls not in (Record, MPoly):
                    slotted.append(cls.__name__)
                    assert issubclass(cls, Record), cls.__name__
    assert "GermContext" in slotted, slotted


def test_wrong_field_count_is_refused():
    with pytest.raises(ValueError):
        SolveBounds(1, 2, 3)
    with pytest.raises(ValueError):
        GraphComponent((1,), 0, 0)


def test_cli_imports_without_dataclasses_or_inspect():
    # -S keeps the interpreter's site hooks, which may preload modules, out
    src = os.path.dirname(os.path.dirname(os.path.abspath(bsideal.__file__)))
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import bsideal.cli\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
