from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endosign.exact import ExactValue


def test_zero_is_rejected():
    with pytest.raises(ValueError):
        ExactValue(0)


def test_negative_rational_moves_to_sign():
    v = ExactValue(Fraction(-3, 4))
    assert v.to_json() == {"sign": -1, "numerator": 3, "denominator": 4, "q_half_power": 0}
    assert ExactValue(Fraction(6, 4)).to_json() == \
        {"sign": 1, "numerator": 3, "denominator": 2, "q_half_power": 0}


def test_multiplication_and_inverse():
    a = ExactValue(Fraction(-3, 2))
    b = ExactValue(Fraction(2, 9))
    assert a * b == ExactValue(Fraction(-1, 3))
    inverse = ExactValue(1 / a.value)
    assert a * inverse == inverse * a == ExactValue(1)
    assert a * ExactValue(1) == a


def test_equality_semantics():
    assert ExactValue(3) == ExactValue(Fraction(6, 2))
    assert ExactValue(-1) != ExactValue(1)
    assert ExactValue(Fraction(1, 2)) != ExactValue(2)
    # only ExactValues compare equal to an ExactValue
    assert ExactValue(3) != 3
    assert ExactValue(3) != Fraction(3)


rationals = st.fractions(min_value=Fraction(-50), max_value=50).filter(bool)


@given(rationals, rationals, rationals)
def test_multiplication_associative(r1, r2, r3):
    a, b, c = ExactValue(r1), ExactValue(r2), ExactValue(r3)
    assert (a * b) * c == a * (b * c) == ExactValue(r1 * r2 * r3)
