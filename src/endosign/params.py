"""Parameter triples (lambda, s, epsilon), their assembly and characters.

A unipotent-quadratic parameter is a pair of symplectic partitions
(lambda+, lambda-) together with sign functions on their even blocks.  Two
such parameters for sizes n1, n2 assemble into a triple (lambda, s, h):
lambda is the union, h splits it by factor of origin, s by eigenvalue sign,
and restricting to either eigenspace of h gives back that factor.  The
component group is the elementary abelian 2-group on the even blocks of
lambda+ and lambda-; a character epsilon is evaluated at any of its elements.
"""

from __future__ import annotations

from typing import Mapping

from .partitions import SymplecticPartition

PLUS, MINUS = 1, -1


def _check_eps(eps: Mapping[int, int], sp: SymplecticPartition, side: str) -> dict[int, int]:
    eps = dict(eps)
    expected = set(sp.jord_bp)
    if set(eps) != expected:
        raise ValueError(f"eps{side} must be defined exactly on the even blocks "
                         f"{sorted(expected)}, got {sorted(eps)}")
    if any(v not in (1, -1) for v in eps.values()):
        raise ValueError(f"eps{side} values must be +-1")
    return eps


class UnipQuadParam:
    """A parameter (lambda+, eps+, lambda-, eps-) of total size 2n."""

    __slots__ = ("lam_plus", "lam_minus", "eps_plus", "eps_minus", "n")

    def __init__(self, lam_plus: SymplecticPartition, lam_minus: SymplecticPartition,
                 eps_plus: Mapping[int, int] | None = None,
                 eps_minus: Mapping[int, int] | None = None):
        self.lam_plus = lam_plus
        self.lam_minus = lam_minus
        self.eps_plus = _check_eps(eps_plus, lam_plus, "+") if eps_plus is not None \
            else {k: 1 for k in lam_plus.jord_bp}
        self.eps_minus = _check_eps(eps_minus, lam_minus, "-") if eps_minus is not None \
            else {k: 1 for k in lam_minus.jord_bp}
        self.n = (lam_plus.size() + lam_minus.size()) // 2

    def __repr__(self):
        return (f"UnipQuadParam(lam_plus={list(self.lam_plus.parts)}, "
                f"lam_minus={list(self.lam_minus.parts)}, n={self.n})")


def endoscopic_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (n1, n2) with n1 + n2 = n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [(n1, n - n1) for n1 in range(n + 1)]


def assemble_triple(t1: UnipQuadParam, t2: UnipQuadParam,
                    pair: tuple[int, int]) -> dict[tuple[int, int], SymplecticPartition]:
    """Assemble two parameters into (lambda, s, h) for the pair (n1, n2).

    The triple is its four cells: (s_sign, h_sign) maps to the sub-multiset
    of lambda in that joint eigenspace.  h has +1 exactly on the first
    factor, s has +1 on the plus-partitions.
    """
    n1, n2 = pair
    if t1.n != n1 or t2.n != n2:
        raise ValueError(f"factor sizes ({t1.n}, {t2.n}) do not match pair {pair}")
    return {
        (PLUS, PLUS): t1.lam_plus,
        (MINUS, PLUS): t1.lam_minus,
        (PLUS, MINUS): t2.lam_plus,
        (MINUS, MINUS): t2.lam_minus,
    }


def restrict(cells: Mapping[tuple[int, int], SymplecticPartition],
             h_sign: int) -> tuple[SymplecticPartition, SymplecticPartition]:
    """(lambda+, lambda-) of the factor supported on the given h-eigenspace."""
    return cells[PLUS, h_sign], cells[MINUS, h_sign]


def eval_character_on_image(param: UnipQuadParam, image: Mapping[tuple[int, int], int]) -> int:
    """epsilon evaluated at an arbitrary component-group element."""
    value = 1
    for k in param.lam_plus.jord_bp:
        if image[PLUS, k] < 0:
            value *= param.eps_plus[k]
    for k in param.lam_minus.jord_bp:
        if image[MINUS, k] < 0:
            value *= param.eps_minus[k]
    return value
