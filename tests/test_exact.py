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
    assert v.sign == -1 and v.rational == Fraction(3, 4)


def test_q_power_folding():
    v = ExactValue(2, q_half=3, q=5)
    assert v.q_half == 1 and v.rational == 10
    w = ExactValue(2, q_half=-3, q=5)
    assert w.q_half == 1 and w.rational == Fraction(2, 25)
    with pytest.raises(ValueError):
        ExactValue(1, q_half=2)


def test_multiplication_and_inverse():
    a = ExactValue(Fraction(3, 2), sign=-1, q_half=1, q=7)
    b = ExactValue(Fraction(2, 9), q_half=1, q=7)
    prod = a * b
    assert prod == ExactValue(Fraction(7, 3), sign=-1, q=7)
    inverse = ExactValue(1 / a.rational, sign=a.sign, q_half=-a.q_half, q=7)
    assert a * inverse == inverse * a == ExactValue(1)
    with pytest.raises(ValueError):
        a * ExactValue(1, q_half=1, q=5)


def test_equality_semantics():
    assert ExactValue(Fraction(5, 1), q=5) == ExactValue(1, q_half=2, q=5)
    assert ExactValue(1, q_half=1, q=5) != ExactValue(1, q_half=1, q=7)
    assert ExactValue(3) == ExactValue(Fraction(6, 2))
    assert ExactValue(1, sign=-1) == ExactValue(-1)
    # only ExactValues compare equal to an ExactValue
    assert ExactValue(3) != 3


rationals = st.fractions(min_value=Fraction(1, 50), max_value=50)
signs = st.sampled_from([1, -1])
halves = st.integers(min_value=-3, max_value=3)


@given(rationals, signs, halves, rationals, signs, halves, rationals, signs, halves)
def test_multiplication_associative(r1, s1, h1, r2, s2, h2, r3, s3, h3):
    a = ExactValue(r1, sign=s1, q_half=h1, q=5)
    b = ExactValue(r2, sign=s2, q_half=h2, q=5)
    c = ExactValue(r3, sign=s3, q_half=h3, q=5)
    assert (a * b) * c == a * (b * c)

