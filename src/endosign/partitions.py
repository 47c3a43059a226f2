"""Integer partitions and symplectic partitions.

Partitions are multisets of positive integers stored in weakly decreasing
order.  A symplectic partition of 2N is one in which every odd part has even
multiplicity; its distinct even parts (the "even blocks") index the component
group used by the parameter combinatorics.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from .errors import ResourceLimitError

SYMPLECTIC_ENUM_CAP = 40


class Partition:
    """A partition: weakly decreasing positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((int(p) for p in parts), reverse=True)
        if ps and ps[-1] <= 0:
            raise ValueError(f"parts must be positive, got {ps}")
        self.parts = tuple(ps)

    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def counter(self) -> Counter:
        return Counter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def to_json(self) -> list[int]:
        return list(self.parts)


def is_symplectic(p: Partition, two_n: int) -> bool:
    """True iff p is a partition of two_n whose odd parts all have even multiplicity."""
    if two_n < 0 or two_n % 2:
        raise ValueError(f"total must be a nonnegative even integer, got {two_n}")
    if p.size() != two_n:
        return False
    return all(m % 2 == 0 for k, m in p.counter().items() if k % 2)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in lexicographically descending order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, maxpart, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n if n else 1, ())


class SymplecticPartition:
    """A partition of an even total in which every odd part has even multiplicity.

    jord_bp holds its distinct even parts, descending (the even blocks),
    found once at construction.
    """

    __slots__ = ("base", "total", "jord_bp")

    def __init__(self, base: Partition):
        total = base.size()
        if not is_symplectic(base, total):
            raise ValueError(f"{base!r} is not a symplectic partition of {total}")
        self.base = base
        self.total = total
        self.jord_bp = tuple(sorted({k for k in base.parts if k % 2 == 0}, reverse=True))

    def __eq__(self, other):
        return isinstance(other, SymplecticPartition) and self.base == other.base

    def __repr__(self):
        return f"SymplecticPartition({list(self.base.parts)})"

    def to_json(self) -> list[int]:
        return self.base.to_json()


def enumerate_symplectic(two_n: int) -> list[SymplecticPartition]:
    """All symplectic partitions of two_n, lexicographically descending."""
    if two_n < 0 or two_n % 2:
        raise ValueError(f"total must be a nonnegative even integer, got {two_n}")
    if two_n > SYMPLECTIC_ENUM_CAP:
        raise ResourceLimitError(
            f"symplectic enumeration capped at {SYMPLECTIC_ENUM_CAP}, got {two_n}")
    return [SymplecticPartition(p)
            for p in enumerate_partitions(two_n) if is_symplectic(p, two_n)]
