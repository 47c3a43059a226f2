from fractions import Fraction

import pytest

from endosign.exact import ExactValue


def test_zero_is_rejected():
    with pytest.raises(ValueError):
        ExactValue(0)


def test_negative_rational_moves_to_sign():
    v = ExactValue(Fraction(-3, 4))
    assert v.to_json() == {"sign": -1, "numerator": 3, "denominator": 4, "q_half_power": 0}
    assert ExactValue(Fraction(6, 4)).to_json() == \
        {"sign": 1, "numerator": 3, "denominator": 2, "q_half_power": 0}
