"""Exact nonzero rationals.

No sweep builds one: constprod compares plain Fractions and writes its
left side as the Fraction's string.  The class stays because the per-layer
metrics exact.ExactValue.init.calls and exact.self_s of BENCHMARK.json
name it.
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
