"""Semisimple-descent bookkeeping and its splitting enumerations.

An elliptic element factors as s * E(X); the centralizer of s is a product
of an odd orthogonal group (eigenvalue +1, size 2 n_+ + 1), an even one
(eigenvalue -1, size 2 n_-) and unitary groups indexed by Galois orbits of
the remaining eigenvalues, each carrying a block size d_i and an unramified
degree f_i.  This module records those invariants, the feasibility window
for a cuspidal-support quadruple, the integer splittings of the support
sizes, the compatible splittings of the class partitions (enumerated once
per multiset) and the unique splitting selected by an endoscopic size
assignment.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .constants import QuadrupleGamma, r_plus_minus
from .localfield import TRIVIAL, SquareClass
from .partitions import Partition


class UnitaryBlock(NamedTuple):
    d: int
    f: int


class DescentDatum:
    """Invariants (n_+, eta_+, n_-, eta_-, blocks) of a descent centralizer."""

    __slots__ = ("n_plus", "eta_plus", "n_minus", "eta_minus", "blocks")

    def __init__(self, n_plus: int, eta_plus: SquareClass, n_minus: int,
                 eta_minus: SquareClass, blocks: Iterable[tuple[int, int]]):
        blocks = tuple(UnitaryBlock(*b) for b in blocks)
        if any(b.d < 1 or b.f < 1 for b in blocks):
            raise ValueError("unitary blocks need d >= 1 and f >= 1")
        if n_plus < 0 or n_minus < 0:
            raise ValueError("n_+ and n_- must be nonnegative")
        d = sum(b.d for b in blocks)
        if (eta_plus.val_parity + eta_minus.val_parity) % 2:
            raise ValueError("val(eta_+) + val(eta_-) must be even")
        if eta_plus.unit_sign * eta_minus.unit_sign != (-1) ** (d % 2):
            raise ValueError("unit signs must satisfy sgn(eta_+) sgn(eta_-) = (-1)^d")
        if n_minus == 1 and eta_minus == TRIVIAL:
            raise ValueError("ellipticity excludes (n_-, eta_-) = (1, trivial)")
        self.n_plus = n_plus
        self.eta_plus = eta_plus
        self.n_minus = n_minus
        self.eta_minus = eta_minus
        self.blocks = blocks

    def __repr__(self):
        return (f"DescentDatum(n_plus={self.n_plus}, eta_plus={self.eta_plus.name()!r}, "
                f"n_minus={self.n_minus}, eta_minus={self.eta_minus.name()!r}, "
                f"blocks={list(self.blocks)})")

    def to_json(self):
        return {"n_plus": self.n_plus, "eta_plus": self.eta_plus.name(),
                "n_minus": self.n_minus, "eta_minus": self.eta_minus.name(),
                "blocks": [[b.d, b.f] for b in self.blocks],
                "n": self.n_plus + self.n_minus + sum(b.d * b.f for b in self.blocks)}


def descent_feasibility(dd: DescentDatum, g: QuadrupleGamma) -> tuple[int, int] | None:
    """Feasibility window for the quadruple g against a descent datum.

    Requires val(eta_-) = r'' mod 2 and the two sector sizes to dominate
    the squares of the shifted parameters.  Returns the residual sizes
    (N_+, N_-), with N_+ = n_+ - (r'_+^2 + r''^2 - 1)/2 and
    N_- = n_- - (r'_-^2 + r''^2)/2, or None when the window is empty.
    """
    rp, rpp = g.rp, g.rpp
    r_plus, r_minus = r_plus_minus(rp, rpp)
    if dd.eta_minus.val_parity != rpp % 2:
        return None
    if 2 * dd.n_plus + 1 < r_plus ** 2 + rpp ** 2 or \
            2 * dd.n_minus < r_minus ** 2 + rpp ** 2:
        return None
    N_plus = dd.n_plus - (r_plus ** 2 + rpp ** 2 - 1) // 2
    N_minus = dd.n_minus - (r_minus ** 2 + rpp ** 2) // 2
    return N_plus, N_minus


class SizeSplit(NamedTuple):
    """An integer splitting of the residual sizes across the two support slots."""

    Np_plus: int
    Np_minus: int
    Npp_plus: int
    Npp_minus: int
    pairs: tuple[tuple[int, int], ...]

    def to_json(self):
        return {"Np_plus": self.Np_plus, "Np_minus": self.Np_minus,
                "Npp_plus": self.Npp_plus, "Npp_minus": self.Npp_minus,
                "pairs": [list(p) for p in self.pairs]}


def enumerate_size_splits(dd: DescentDatum, g: QuadrupleGamma,
                          N_plus: int, N_minus: int) -> list[SizeSplit]:
    """All nonnegative solutions of the five size constraints.

    N'_+ + N''_+ = N_+, N'_- + N''_- = N_-, d'_i + d''_i = d_i, and the two
    support sums N'_+ + N'_- + sum d'_i f_i = N', N''_+ + N''_- + sum
    d''_i f_i = N''.
    """
    out = []
    block_ranges = [range(b.d + 1) for b in dd.blocks]
    for dps in itertools.product(*block_ranges):
        dprime_weight = sum(dp * b.f for dp, b in zip(dps, dd.blocks))
        for Np_plus in range(N_plus + 1):
            Np_minus = g.Np - Np_plus - dprime_weight
            if not 0 <= Np_minus <= N_minus:
                continue
            Npp_plus = N_plus - Np_plus
            Npp_minus = N_minus - Np_minus
            dpps_weight = sum((b.d - dp) * b.f for dp, b in zip(dps, dd.blocks))
            if Npp_plus + Npp_minus + dpps_weight != g.Npp:
                continue
            pairs = tuple((dp, b.d - dp) for dp, b in zip(dps, dd.blocks))
            out.append(SizeSplit(Np_plus, Np_minus, Npp_plus, Npp_minus, pairs))
    return out


class ClassSplit(NamedTuple):
    """A splitting of one class partition across the sectors."""

    beta_plus: Partition
    beta_minus: Partition
    beta_blocks: tuple[Partition, ...]


def class_splits(beta: Partition, degrees: tuple[int, ...]):
    """Every splitting beta = beta_+ u beta_- u union_i f_i * beta_i, of any sizes.

    degrees lists the f_i; each beta_i must be all-odd, entering beta with
    parts scaled by f_i.  A part may go to either sector, and to block i
    only when part / f_i is an odd integer; its bins are found once per
    call.  The m copies of a part go to its bins in nondecreasing order, so
    each admissible multiset of bins is generated, and yielded, exactly once.
    """
    mults = beta.counter()
    allowed = [[0, 1] + [2 + i for i, f in enumerate(degrees) if part % f == 0 and (part // f) % 2]
               for part in mults]
    for choice in itertools.product(*(itertools.combinations_with_replacement(where, m)
                                      for where, m in zip(allowed, mults.values()))):
        bins = [[] for _ in range(2 + len(degrees))]
        for part, wheres in zip(mults, choice):
            for where in wheres:
                bins[where].append(part)
        yield ClassSplit(Partition(bins[0]), Partition(bins[1]),
                         tuple(Partition(p // f for p in raw) for f, raw in zip(degrees, bins[2:])))


def assignment_sizes(g: QuadrupleGamma, split: SizeSplit) -> tuple[int, int, int, int]:
    """Sector sizes (n_{1,+}, n_{2,+}, n_{1,-}, n_{2,-}) from the size relations."""
    r_plus, r_minus = r_plus_minus(g.rp, g.rpp)
    rho = abs(g.rpp)
    n1_plus = ((r_plus + rho) ** 2 - 1) // 4 + split.Np_plus
    n2_plus = ((r_plus - rho) ** 2 - 1) // 4 + split.Npp_plus
    n1_minus = (r_minus + rho) ** 2 // 4 + split.Np_minus
    n2_minus = (r_minus - rho) ** 2 // 4 + split.Npp_minus
    return n1_plus, n2_plus, n1_minus, n2_minus


def solve_split_family(dd: DescentDatum, g: QuadrupleGamma,
                       sizes: tuple[int, int, int, int], eta1_minus: SquareClass,
                       pairs: tuple[tuple[int, int], ...]) -> SizeSplit | None:
    """The unique size split selected by an assignment, or None.

    The assignment is the sector sizes (as from assignment_sizes), eta_{1,-}
    (with eta_{2,-} = eta_- eta_{1,-}) and the block splits.  Inverts the
    sector-size relations; requires r'' >= 0 (for r'' < 0 swap the
    assignment's two slots and negate r'').  Returns None when a parity
    condition or inequality fails or the split breaks a size constraint.
    """
    if g.rpp < 0:
        raise ValueError("solver expects r'' >= 0; swap the assignment slots first")
    rp, rpp = g.rp, g.rpp
    r_plus, r_minus = r_plus_minus(rp, rpp)
    n1_plus, n2_plus, n1_minus, n2_minus = sizes
    if eta1_minus.val_parity != ((r_minus + rpp) // 2) % 2:
        return None
    if (dd.eta_minus * eta1_minus).val_parity != ((r_minus - rpp) // 2) % 2:
        return None
    if n1_plus < ((r_plus + rpp) ** 2 - 1) // 4 or \
            n2_plus < ((r_plus - rpp) ** 2 - 1) // 4 or \
            n1_minus < (r_minus + rpp) ** 2 // 4 or \
            n2_minus < (r_minus - rpp) ** 2 // 4:
        return None
    split = SizeSplit(
        n1_plus - ((r_plus + rpp) ** 2 - 1) // 4,
        n1_minus - (r_minus + rpp) ** 2 // 4,
        n2_plus - ((r_plus - rpp) ** 2 - 1) // 4,
        n2_minus - (r_minus - rpp) ** 2 // 4,
        pairs)
    # The five size constraints, checked directly, not against the sweep's own scan.
    weights = [sum(p[k] * b.f for p, b in zip(pairs, dd.blocks)) for k in (0, 1)]
    if len(pairs) != len(dd.blocks) or \
            any(min(p) < 0 or sum(p) != b.d for p, b in zip(pairs, dd.blocks)) or \
            (split.Np_plus + split.Npp_plus, split.Np_minus + split.Npp_minus) != \
            descent_feasibility(dd, g) or \
            split.Np_plus + split.Np_minus + weights[0] != g.Np or \
            split.Npp_plus + split.Npp_minus + weights[1] != g.Npp:
        return None
    return split


def split_scan(splits: list[SizeSplit], sizes: list[tuple]) -> list[list[SizeSplit]]:
    """Per split, the splits whose assignment_sizes (sizes, in order) and block splits match."""
    return [[s for s, s_sizes in zip(splits, sizes) if s_sizes == own and s.pairs == split.pairs]
            for split, own in zip(splits, sizes)]


def sector_size_sum(sizes: tuple[int, int, int, int], split: SizeSplit,
                    blocks: tuple[UnitaryBlock, ...]) -> tuple[int, int]:
    """(n1, n2): a split's sector sizes (its assignment_sizes) plus its block weights.

    The descent suite checks them, on its sweep's own sizes, against split_sizes.
    """
    n1_plus, n2_plus, n1_minus, n2_minus = sizes
    return (n1_plus + n1_minus + sum(p[0] * b.f for p, b in zip(split.pairs, blocks)),
            n2_plus + n2_minus + sum(p[1] * b.f for p, b in zip(split.pairs, blocks)))


def whole_class_sign(beta: Partition) -> int:
    """(-1)^len(beta), which split_class_sign equals on each of beta's class splits."""
    return (-1) ** (beta.length() % 2)


def split_class_sign(split: ClassSplit) -> int:
    """(-1)^len(beta_+) (-1)^len(beta_-) (-1)^(sum |beta_i|) of a class split."""
    return (-1) ** ((split.beta_plus.length() + split.beta_minus.length()
                     + sum(b.size() for b in split.beta_blocks)) % 2)
