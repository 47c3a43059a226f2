import itertools

import pytest

from endosign.localfield import (TRIVIAL, ResidueParam, SquareClass, is_prime, legendre,
                                 sgn_minus_one)
from endosign.suites import Q_CAP

XI = SquareClass(0, -1)
PI_CLASS = SquareClass(1, 1)
XI_PI = SquareClass(1, -1)
CLASSES = (TRIVIAL, XI, PI_CLASS, XI_PI)


def brute_squares(q):
    return {(x * x) % q for x in range(1, q)}


def test_legendre_examples():
    assert legendre(4, ResidueParam(5)) == 1
    assert legendre(2, ResidueParam(5)) == -1  # squares mod 5 are {1, 4}
    assert legendre(12, ResidueParam(13)) == 1  # (-1)^((13-1)/2)


def test_legendre_against_square_sets():
    for q in (5, 7, 13):
        rp = ResidueParam(q)
        squares = brute_squares(q)
        for x in range(1, q):
            assert legendre(x, rp) == (1 if x in squares else -1)
        assert sum(1 for x in range(1, q) if legendre(x, rp) == 1) == (q - 1) // 2


def test_legendre_multiplicative():
    for q in (5, 7, 13):
        rp = ResidueParam(q)
        for x in range(1, q):
            for y in range(1, q):
                assert legendre(x * y, rp) == legendre(x, rp) * legendre(y, rp)


def test_legendre_rejects_zero():
    with pytest.raises(ValueError):
        legendre(0, ResidueParam(5))
    with pytest.raises(ValueError):
        legendre(10, ResidueParam(5))


def test_residue_param_validation():
    for bad in (3, 4, 9, 1):
        with pytest.raises(ValueError):
            ResidueParam(bad)


def test_sgn_minus_one():
    assert sgn_minus_one(ResidueParam(5)) == 1
    assert sgn_minus_one(ResidueParam(7)) == -1
    assert sgn_minus_one(ResidueParam(13)) == 1


def test_sgn_minus_one_against_the_squares():
    # The named constants take m = sgn(-1) as an int, so this oracle is what
    # pins the leaf: -1 = q - 1 is a square mod q exactly when m = +1.
    for q in filter(is_prime, range(5, Q_CAP + 1)):
        field = ResidueParam(q)
        assert sgn_minus_one(field) == (1 if q - 1 in field.squares() else -1)


def test_square_class_group_law():
    assert TRIVIAL * XI_PI == XI_PI
    assert XI_PI * XI_PI == TRIVIAL
    assert XI * PI_CLASS == XI_PI
    for a in CLASSES:
        assert a * a == TRIVIAL
        for b in CLASSES:
            assert a * b == b * a
            assert a * b in CLASSES


def test_klein_group_structure():
    # four elements, exponent two, closed: the Klein group
    assert all(a != b for a, b in itertools.combinations(CLASSES, 2))
    for a in CLASSES:
        assert TRIVIAL * a == a


def test_serialization_roundtrip():
    # failure records write a square class as its name
    assert [c.name() for c in CLASSES] == ["1", "xi", "pi", "xi.pi"]


def test_square_class_validation():
    with pytest.raises(ValueError):
        SquareClass(2, 1)
    with pytest.raises(ValueError):
        SquareClass(0, 0)
