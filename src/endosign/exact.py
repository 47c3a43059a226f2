"""Exact nonzero rationals: the left-hand side of the product-formula identity.

A failure record writes one as its Fraction's string, such as "-3/4".
"""

from fractions import Fraction


class ExactValue:
    """An exact nonzero rational number."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = Fraction(value)
        if value == 0:
            raise ValueError("ExactValue cannot represent zero")
        self.value = value

    def __repr__(self):
        return f"ExactValue({self.value})"
