"""Bounded functional-equation solver against hand-checkable classics."""

import random
from fractions import Fraction

import pytest

from bsideal import linalg, solver
from bsideal.polynomials import MPoly, parse_poly, s_names
from bsideal.solver import (
    BSCertificate,
    InvertibleTwistError,
    SolveBounds,
    SolveCapExceeded,
    find_bs_pair,
    sample_ideal,
    verify,
)
from bsideal.weyl import GermContext, WeylOperator


def make_ctx(names, f_texts):
    return GermContext(names, s_names(len(f_texts)), [parse_poly(t, list(names)) for t in f_texts])


def sp(text, r=1):
    return parse_poly(text, s_names(r))


def test_classic_single_x():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    assert cert is not None
    assert cert.b == sp("s + 1")
    assert cert.P == WeylOperator.partial(1, 1, 0)
    assert verify(cert)


def test_classic_single_x_twist_two():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (2,), SolveBounds(2, 0, 0, 2))
    assert cert.b == sp("(s + 1)*(s + 2)")
    assert cert.P == WeylOperator.d_power(1, 1, (2,))


def test_classic_sum_of_squares():
    ctx = make_ctx(["x", "y"], ["x^2 + y^2"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(2, 0, 0, 2))
    assert cert.b == sp("(s + 1)^2")
    quarter = Fraction(1, 4)
    laplacian_over_4 = (
        WeylOperator.d_power(2, 1, (2, 0)).scale(quarter)
        + WeylOperator.d_power(2, 1, (0, 2)).scale(quarter)
    )
    assert cert.P == laplacian_over_4


def test_classic_normal_crossing_pair():
    ctx = make_ctx(["x", "y"], ["x", "y"])
    cert = find_bs_pair(ctx, (1, 1), SolveBounds(2, 0, 0, 2))
    assert cert.b == sp("(s1 + 1)*(s2 + 1)", r=2)
    assert cert.P == WeylOperator.d_power(2, 2, (1, 1))


def test_minimal_b_preferred_within_larger_bounds():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 1, 2))
    assert cert.b == sp("s + 1")
    cert = find_bs_pair(ctx, (1,), SolveBounds(2, 1, 1, 3))
    assert cert.b == sp("s + 1")


def test_cusp_b_function():
    # x^3: roots at -1, -1/3, -2/3
    ctx = make_ctx(["x"], ["x^3"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(3, 0, 0, 3))
    want = sp("(s + 1)*(s + 1/3)*(s + 2/3)")
    assert cert.b == want
    assert cert.b.divide_exact(sp("s + 1")) is not None
    assert verify(cert)


def test_twist_shift_identity_for_x():
    ctx = make_ctx(["x"], ["x"])
    b1 = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1)).b
    b2 = find_bs_pair(ctx, (2,), SolveBounds(2, 0, 0, 2)).b
    assert b2 == b1 * b1.shift((1,))


def test_no_solution_within_bounds():
    ctx = make_ctx(["x"], ["x"])
    assert find_bs_pair(ctx, (2,), SolveBounds(1, 0, 0, 1)) is None


def test_d_support_restriction():
    ctx = make_ctx(["x", "y"], ["x", "y"])
    cert = find_bs_pair(ctx, (1, 1), SolveBounds(2, 0, 0, 2), d_support=[(1, 1)])
    assert cert is not None
    assert cert.b == sp("(s1 + 1)*(s2 + 1)", r=2)
    # a support that cannot reach the target twist finds nothing
    assert find_bs_pair(ctx, (1, 1), SolveBounds(2, 0, 0, 2), d_support=[(2, 0)]) is None


def test_verify_rejects_tampered_certificate():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    bad = BSCertificate(cert.ctx, cert.a, cert.b + MPoly.const(1, 1), cert.P)
    assert verify(cert)
    assert not verify(bad)


def test_sample_ideal_strategies_and_dedup():
    ctx = make_ctx(["x", "y"], ["x", "x*y"])
    found = sample_ideal(ctx, (0, 1), SolveBounds(2, 0, 0, 2))
    assert [name for name, _ in found] == ["mixed"]
    assert found[0][1].b == sp("(s2 + 1)*(s1 + s2 + 1)", r=2)
    for _, cert in found:
        assert verify(cert)


def test_sample_ideal_sorted_by_b():
    ctx = make_ctx(["x", "y"], ["x", "y"])
    found = sample_ideal(ctx, (1, 0), SolveBounds(2, 0, 0, 2))
    bs = [cert.b for _, cert in found]
    assert bs == sorted(bs, key=lambda p: p.order_key())
    assert bs[0] == sp("s1 + 1", r=2)


def test_invertible_twist_rejected():
    ctx = make_ctx(["x"], ["3"])
    with pytest.raises(InvertibleTwistError):
        find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))


def test_twist_validation():
    ctx = make_ctx(["x"], ["x"])
    with pytest.raises(ValueError):
        find_bs_pair(ctx, (-1,), SolveBounds(1, 0, 0, 1))
    with pytest.raises(ValueError):
        find_bs_pair(ctx, (1, 1), SolveBounds(1, 0, 0, 1))


# Certificates and the (rows, columns, nonzeros) of every system handed to
# linalg.nullspace, one per strategy.  They were recorded from a solver that
# multiplied whole polynomials per column and recovered P by a second
# elimination, so they pin P and the system against how both are computed.
PINNED = [
    (
        "x^2 + y^3",
        (3, 3, 2, 3),
        {
            "F": ["y^3 + x^2"],
            "a": [1],
            "b": "s^3 + 3*s^2 + 107/36*s + 35/36",
            "P": "1/12*y*dx^2*dy + 1/27*dy^3 + (1/4*s + 3/8)*dx^2",
        },
        [(308, 304, 1812), (257, 124, 702), (244, 124, 822), (124, 64, 158)],
    ),
    (
        "x^3 + y^3",
        (4, 4, 3, 4),
        {
            "F": ["x^3 + y^3"],
            "a": [1],
            "b": "s^4 + 4*s^3 + 53/9*s^2 + 34/9*s + 8/9",
            "P": "2/81*y*dx^3*dy + (-2/81)*y*dy^4 + (1/27*s + 2/27)*dx^3 "
            "+ (1/9*s + 2/27)*dy^3",
        },
        [(754, 905, 8120), (622, 305, 2780), (622, 305, 2780), (566, 185, 1280)],
    ),
]


@pytest.mark.parametrize("f, box, want, sizes", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_certificates_and_system_sizes(monkeypatch, f, box, want, sizes):
    seen = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        seen.append((len(rows), ncols, sum(len(r) for r in rows)))
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    ctx = make_ctx(["x", "y"], [f])
    found = sample_ideal(ctx, (1,), SolveBounds(*box))
    assert [(name, cert.to_json_dict()) for name, cert in found] == [("mixed", want)]
    (_, cert), = found
    assert cert.b == sp(want["b"])
    assert verify(cert)
    assert seen == sizes


def test_sample_ideal_takes_each_germ_derivative_once(monkeypatch):
    calls = []
    derivative = solver.partial_derivative

    def spy(v, j):
        calls.append(j)
        return derivative(v, j)

    monkeypatch.setattr(solver, "partial_derivative", spy)
    ctx = make_ctx(["x", "y"], ["x^3 + y^3"])
    sample_ideal(ctx, (1,), SolveBounds(4, 4, 3, 4))
    # one derivative per nonzero d-monomial of order <= 4 in two variables
    assert len(calls) == 14


def test_cell_cap(monkeypatch):
    monkeypatch.setenv("BSIDEAL_MAX_CELLS", "4")
    ctx = make_ctx(["x"], ["x"])
    with pytest.raises(SolveCapExceeded):
        find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))


def test_certificate_json():
    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    assert cert.to_json_dict() == {
        "F": ["x"],
        "a": [1],
        "b": "s + 1",
        "P": "dx",
    }


def test_random_twists_verify():
    rng = random.Random(412)
    ctx = make_ctx(["x", "y"], ["x", "y"])
    for _ in range(6):
        a = (rng.randint(0, 2), rng.randint(0, 2))
        if a == (0, 0):
            a = (1, 1)
        order = a[0] + a[1]
        cert = find_bs_pair(ctx, a, SolveBounds(order, 0, 0, order))
        assert cert is not None
        assert verify(cert)
        want = MPoly.const(2, 1)
        for i, ai in enumerate(a):
            for j in range(1, ai + 1):
                want = want * (MPoly.variable(2, i) + j)
        assert cert.b == want
