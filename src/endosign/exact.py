"""Exact nonzero rationals: the left-hand side of the product-formula identity.

A failure record serializes one as a sign and a positive reduced fraction.
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

    def to_json(self):
        # q_half_power is always 0; it keeps the failure-record schema unchanged.
        return {"sign": 1 if self.value > 0 else -1, "numerator": abs(self.value.numerator),
                "denominator": self.value.denominator, "q_half_power": 0}
