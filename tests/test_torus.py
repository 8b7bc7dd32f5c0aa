import random
from fractions import Fraction

import pytest

from bsideal.hyperplanes import Hyperplane
from bsideal.torus import (
    TorusCoset,
    check_axis_union,
    cosets_of_character,
    exp_image,
    union_equal,
)


def contains_angles(coset, beta):
    """Membership of the point exp(2*pi*i*beta) in the coset, beta rational."""
    val = sum((Fraction(b) * c for b, c in zip(beta, coset.v)), Fraction(0))
    return (val - coset.theta) % 1 == 0


def test_make_rejects_empty():
    # the zero character binds nothing
    with pytest.raises(ValueError):
        TorusCoset((0, 0), Fraction(0))


def test_make_normalizes_negative_lead():
    a = TorusCoset((-1, 2), Fraction(1, 3))
    assert a == TorusCoset((1, -2), Fraction(2, 3))
    assert a.v == (1, -2) and a.theta == Fraction(2, 3)


def test_angles_normalized_mod_one():
    a = TorusCoset((1,), Fraction(5, 2))
    b = TorusCoset((1,), Fraction(1, 2))
    assert a == b


def test_contains_angles():
    c = TorusCoset((2,), Fraction(0))
    assert contains_angles(c, (Fraction(0),))
    assert contains_angles(c, (Fraction(1, 2),))
    assert not contains_angles(c, (Fraction(1, 4),))


def test_cosets_of_character_decomposition():
    got = cosets_of_character((2,))
    assert got == (
        TorusCoset((1,), Fraction(0)),
        TorusCoset((1,), Fraction(1, 2)),
    )
    with pytest.raises(ValueError):
        cosets_of_character((0, 0))


def test_cosets_of_character_membership_random():
    # the g primitive cosets partition the solution set of lambda^v = 1
    rng = random.Random(416)
    for _ in range(25):
        r = rng.randint(1, 2)
        v = tuple(rng.randint(-3, 3) for _ in range(r))
        if all(x == 0 for x in v):
            v = (1,) * r
        cs = cosets_of_character(v)
        n = 12
        for beta in (
            (Fraction(i, n), Fraction(j, n))
            for i in range(n)
            for j in range(n if r == 2 else 1)
        ):
            beta = beta[:r]
            on_locus = sum(Fraction(x) * b for x, b in zip(v, beta)) % 1 == 0
            holders = sum(1 for c in cs if contains_angles(c, beta))
            assert holders == (1 if on_locus else 0)


def test_exp_image_frozen():
    h = Hyperplane((1, 2), Fraction(1, 2))
    assert exp_image(h) == TorusCoset((1, 2), Fraction(1, 2))
    h = Hyperplane((1,), Fraction(1))
    assert exp_image(h) == TorusCoset((1,), Fraction(0))


def test_exp_image_integer_translation_invariant():
    rng = random.Random(417)
    for _ in range(25):
        normal = tuple(rng.randint(0, 3) for _ in range(2))
        if all(v == 0 for v in normal):
            normal = (1, 0)
        h = Hyperplane.canonical(normal, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        k = (rng.randint(-10, 10), rng.randint(-10, 10))
        assert exp_image(h.translate(k)) == exp_image(h)


def test_union_equal():
    a = cosets_of_character((2,))
    b = (
        TorusCoset((1,), Fraction(1, 2)),
        TorusCoset((1,), Fraction(0)),
    )
    assert union_equal(a, b)
    assert not union_equal(a, b[:1])


def test_check_axis_union():
    c1 = TorusCoset((1, 0), Fraction(0))
    c2 = TorusCoset((0, 1), Fraction(0))
    assert check_axis_union({0: [c1], 1: [c2]}, [c1, c2], (1, 1))
    assert not check_axis_union({0: [c1]}, [c1, c2], (1, 1))
    with pytest.raises(ValueError):
        check_axis_union({1: [c2]}, [c2], (1, 0))


def test_json_and_text():
    c = TorusCoset((1,), Fraction(1, 2))
    assert c.to_json_dict() == {"binding": [{"v": [1], "theta": "1/2"}]}
    assert c.text() == "{L1 = e(2*pi*i*1/2)}"
    c = TorusCoset((1, 2), Fraction(0))
    assert c.text() == "{L1*L2^2 = 1}"
    # a character may have negative entries
    c = TorusCoset((1, -2), Fraction(1, 3))
    assert c.text() == "{L1*L2^-2 = e(2*pi*i*1/3)}"
