"""Exact values of the form sign * rational * q**(k/2).

Every constant handled by this package is of this shape: a sign, a positive
rational, and possibly a half-integer power of the residue cardinality q.
Arithmetic is exact; q stays symbolic only in the residual exponent k in
{0, 1}, even powers being folded into the rational part.
"""

from __future__ import annotations

from fractions import Fraction


class ExactValue:
    """An exact nonzero number sign * rational * q**(q_half/2)."""

    __slots__ = ("sign", "rational", "q_half", "q")

    def __init__(self, rational=1, sign: int = 1, q_half: int = 0, q: int | None = None):
        rat = Fraction(rational)
        if rat == 0:
            raise ValueError("ExactValue cannot represent zero")
        if rat < 0:
            sign, rat = -sign, -rat
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        residual = q_half % 2
        if q_half != residual:
            if q is None:
                raise ValueError("concrete q required to normalize q-powers")
            rat *= Fraction(q) ** ((q_half - residual) // 2)
        if residual and q is None:
            raise ValueError("concrete q required for a half-integer q-power")
        self.sign = sign
        self.rational = rat
        self.q_half = residual
        self.q = q

    def _merged_q(self, other: "ExactValue") -> int | None:
        if self.q is not None and other.q is not None and self.q != other.q:
            raise ValueError(f"mismatched residue cardinalities {self.q} and {other.q}")
        return self.q if self.q is not None else other.q

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(
            self.rational * other.rational,
            sign=self.sign * other.sign,
            q_half=self.q_half + other.q_half,
            q=self._merged_q(other),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        if (self.sign, self.rational, self.q_half) != (other.sign, other.rational, other.q_half):
            return False
        # Residual sqrt(q) factors only match for the same q.
        return self.q_half == 0 or self.q == other.q

    def __repr__(self):
        body = f"{'-' if self.sign < 0 else ''}{self.rational}"
        if self.q_half:
            body += f"*q^(1/2)[q={self.q}]"
        return f"ExactValue({body})"

    def to_json(self):
        return {
            "sign": self.sign,
            "numerator": self.rational.numerator,
            "denominator": self.rational.denominator,
            "q_half_power": self.q_half,
        }
