"""Square-class arithmetic for a p-adic field with odd residue cardinality q.

F^x / F^x2 has four classes once a uniformizer pi and a non-square unit xi
are fixed: 1, xi, pi, xi*pi.  A class is recorded as (valuation mod 2,
sign of the unit part), where the sign is the value of the quadratic
character sgn, realized on the residue field by the Legendre symbol.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class ResidueParam:
    """A fixed odd residue cardinality q, prime and >= 5."""

    __slots__ = ("q", "_table")

    def __init__(self, q: int):
        if not is_prime(q) or q < 5:
            raise ValueError(f"q must be a prime >= 5, got {q}")
        self.q = q
        table = [0] * q
        for x in range(1, q):
            table[x] = 1 if pow(x, (q - 1) // 2, q) == 1 else -1
        self._table = tuple(table)

    def units(self) -> range:
        return range(1, self.q)

    def squares(self) -> frozenset[int]:
        """Nonzero squares mod q, by direct enumeration."""
        return frozenset((x * x) % self.q for x in range(1, self.q))

    def __repr__(self):
        return f"ResidueParam(q={self.q})"


def legendre(x: int, rp: ResidueParam) -> int:
    """Legendre symbol of x mod q as +-1; x must be a unit."""
    s = rp._table[x % rp.q]
    if s == 0:
        raise ValueError("Legendre symbol undefined at 0")
    return s


def sgn_minus_one(rp: ResidueParam) -> int:
    """Value of the quadratic character at -1: +1 iff q = 1 mod 4."""
    return 1 if rp.q % 4 == 1 else -1


_NAMES = {(0, 1): "1", (0, -1): "xi", (1, 1): "pi", (1, -1): "xi.pi"}


class SquareClass:
    """An element of F^x / F^x2: (valuation parity, unit-part sign)."""

    __slots__ = ("val_parity", "unit_sign")

    def __init__(self, val_parity: int, unit_sign: int):
        if val_parity not in (0, 1):
            raise ValueError(f"valuation parity must be 0 or 1, got {val_parity}")
        if unit_sign not in (1, -1):
            raise ValueError(f"unit sign must be +-1, got {unit_sign}")
        self.val_parity = val_parity
        self.unit_sign = unit_sign

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass((self.val_parity + other.val_parity) % 2,
                           self.unit_sign * other.unit_sign)

    def __eq__(self, other):
        return (isinstance(other, SquareClass)
                and self.val_parity == other.val_parity
                and self.unit_sign == other.unit_sign)

    def name(self) -> str:
        return _NAMES[(self.val_parity, self.unit_sign)]

    def __repr__(self):
        return f"SquareClass({self.name()!r})"


TRIVIAL = SquareClass(0, 1)
