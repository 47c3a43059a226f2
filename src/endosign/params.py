"""Parameter triples (lambda, s, epsilon), their assembly and characters.

A unipotent-quadratic parameter is a pair of symplectic partitions
(lambda+, lambda-) together with sign functions on their even blocks.  Two
such parameters for sizes n1, n2 assemble into a triple (lambda, s, h):
lambda is the union, h splits it by factor of origin, s by eigenvalue sign.
The component group is the elementary abelian 2-group on the even blocks of
lambda+ and lambda-, and characters epsilon evaluate on the image of h.
"""

from __future__ import annotations

from typing import Mapping

from .partitions import Partition, SymplecticPartition, union

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
        self.eps_plus = _check_eps(eps_plus or {}, lam_plus, "+") if eps_plus is not None \
            else {k: 1 for k in lam_plus.jord_bp}
        self.eps_minus = _check_eps(eps_minus or {}, lam_minus, "-") if eps_minus is not None \
            else {k: 1 for k in lam_minus.jord_bp}
        total = lam_plus.total + lam_minus.total
        if total % 2:
            raise ValueError("total size must be even")
        self.n = total // 2

    @property
    def lam(self) -> SymplecticPartition:
        """The full partition lambda+ union lambda-."""
        return SymplecticPartition(union(self.lam_plus.base, self.lam_minus.base))

    def label(self):
        """Hashable label (lambda+, eps+, lambda-, eps-) for virtual-rep terms."""
        return (self.lam_plus.base.parts, tuple(sorted(self.eps_plus.items())),
                self.lam_minus.base.parts, tuple(sorted(self.eps_minus.items())))

    def __repr__(self):
        return (f"UnipQuadParam(lam_plus={list(self.lam_plus.base)}, "
                f"lam_minus={list(self.lam_minus.base)}, n={self.n})")


class InvolutionSplit:
    """A splitting of an ambient partition into +1 and -1 eigenparts."""

    __slots__ = ("part_plus", "part_minus")

    def __init__(self, part_plus: SymplecticPartition, part_minus: SymplecticPartition):
        self.part_plus = part_plus
        self.part_minus = part_minus

    @property
    def ambient(self) -> Partition:
        return union(self.part_plus.base, self.part_minus.base)

    def __eq__(self, other):
        return (isinstance(other, InvolutionSplit)
                and self.part_plus == other.part_plus
                and self.part_minus == other.part_minus)

    def __hash__(self):
        return hash((self.part_plus, self.part_minus))

    def __repr__(self):
        return (f"InvolutionSplit(plus={list(self.part_plus.base)}, "
                f"minus={list(self.part_minus.base)})")

    def to_json(self):
        return {"plus": self.part_plus.to_json(), "minus": self.part_minus.to_json()}


class AssembledTriple:
    """(lambda, s, h) with the commuting refinement into four cells.

    cells maps (s_sign, h_sign) to the sub-multiset of lambda lying in that
    joint eigenspace; s and h are the two marginal splittings.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Mapping[tuple[int, int], Partition]):
        keys = {(PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS), (MINUS, MINUS)}
        cells = dict(cells)
        if set(cells) != keys:
            raise ValueError("cells must cover the four (s, h) sign pairs")
        self.cells = cells

    @property
    def lam(self) -> SymplecticPartition:
        parts = []
        for p in self.cells.values():
            parts.extend(p.parts)
        return SymplecticPartition(Partition(parts))

    def s_split(self) -> InvolutionSplit:
        return InvolutionSplit(
            SymplecticPartition(union(self.cells[PLUS, PLUS], self.cells[PLUS, MINUS])),
            SymplecticPartition(union(self.cells[MINUS, PLUS], self.cells[MINUS, MINUS])))

    def h_split(self) -> InvolutionSplit:
        return InvolutionSplit(
            SymplecticPartition(union(self.cells[PLUS, PLUS], self.cells[MINUS, PLUS])),
            SymplecticPartition(union(self.cells[PLUS, MINUS], self.cells[MINUS, MINUS])))

    def restrict(self, h_sign: int) -> tuple[SymplecticPartition, SymplecticPartition]:
        """(lambda+, lambda-) of the factor supported on the given h-eigenspace."""
        return (SymplecticPartition(self.cells[PLUS, h_sign]),
                SymplecticPartition(self.cells[MINUS, h_sign]))

    def __eq__(self, other):
        return isinstance(other, AssembledTriple) and self.cells == other.cells

    def __repr__(self):
        return f"AssembledTriple(cells={{{', '.join(f'{k}: {list(v)}' for k, v in sorted(self.cells.items()))}}})"

    def to_json(self):
        return {"lambda": self.lam.to_json(),
                "s": self.s_split().to_json(),
                "h": self.h_split().to_json()}


def endoscopic_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (n1, n2) with n1 + n2 = n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [(n1, n - n1) for n1 in range(n + 1)]


def assemble_triple(t1: UnipQuadParam, t2: UnipQuadParam,
                    pair: tuple[int, int]) -> AssembledTriple:
    """Assemble two parameters into (lambda, s, h) for the pair (n1, n2).

    h has +1 exactly on the first factor, s has +1 on the plus-partitions.
    """
    n1, n2 = pair
    if t1.n != n1 or t2.n != n2:
        raise ValueError(f"factor sizes ({t1.n}, {t2.n}) do not match pair {pair}")
    return AssembledTriple({
        (PLUS, PLUS): t1.lam_plus.base,
        (MINUS, PLUS): t1.lam_minus.base,
        (PLUS, MINUS): t2.lam_plus.base,
        (MINUS, MINUS): t2.lam_minus.base,
    })


def involution_swap(triple: AssembledTriple) -> AssembledTriple:
    """Exchange the roles of s and h; applying twice is the identity."""
    return AssembledTriple({(h, s): p for (s, h), p in triple.cells.items()})


def refine_splits(param: UnipQuadParam, h: InvolutionSplit) -> AssembledTriple:
    """Build the four-cell refinement of (s from param, h), when it is forced.

    For every part value, the copies in each s-eigenspace must receive a
    well-defined number of copies of h's minus side.  Raises ValueError if
    the distribution is ambiguous or inconsistent.
    """
    if h.ambient != union(param.lam_plus.base, param.lam_minus.base):
        raise ValueError("h does not split the parameter's partition")
    cells = {(PLUS, PLUS): [], (PLUS, MINUS): [], (MINUS, PLUS): [], (MINUS, MINUS): []}
    minus_mult = h.part_minus.base.counter()
    values = set(param.lam_plus.base.parts) | set(param.lam_minus.base.parts)
    for k in values:
        mp = param.lam_plus.base.mult(k)
        mm = param.lam_minus.base.mult(k)
        km = minus_mult.get(k, 0)
        lo, hi = max(0, km - mm), min(mp, km)
        if lo > hi:
            raise ValueError(f"h-splitting of part {k} is inconsistent with s")
        if lo < hi:
            raise ValueError(f"ambiguous h-splitting of part {k} across the s-eigenspaces")
        kp_minus = lo
        cells[PLUS, MINUS] += [k] * kp_minus
        cells[PLUS, PLUS] += [k] * (mp - kp_minus)
        cells[MINUS, MINUS] += [k] * (km - kp_minus)
        cells[MINUS, PLUS] += [k] * (mm - km + kp_minus)
    return AssembledTriple({key: Partition(parts) for key, parts in cells.items()})


def h_image(param: UnipQuadParam, triple: AssembledTriple) -> dict[tuple[int, int], int]:
    """Image of h in the component group: a sign per (side, even block).

    The coordinate at block k on the s = +1 (resp. -1) side is -1 exactly
    when an odd number of copies of k in that eigenspace lie on h's minus
    side.  Keys are (side, k) with side +1 or -1.
    """
    _check_compatible(param, triple)
    image = {}
    for side, cell in ((PLUS, triple.cells[PLUS, MINUS]), (MINUS, triple.cells[MINUS, MINUS])):
        sp = param.lam_plus if side == PLUS else param.lam_minus
        for k in sp.jord_bp:
            image[side, k] = -1 if cell.mult(k) % 2 else 1
    return image


def _check_compatible(param: UnipQuadParam, triple: AssembledTriple) -> None:
    s = triple.s_split()
    if s.part_plus.base != param.lam_plus.base or s.part_minus.base != param.lam_minus.base:
        raise ValueError("triple's s-splitting does not match the parameter")


def eval_character(param: UnipQuadParam, h) -> int:
    """epsilon(h) for the parameter's sign functions.

    h may be an AssembledTriple (carrying the commuting refinement) or an
    InvolutionSplit whose refinement against s is forced.
    """
    if isinstance(h, InvolutionSplit):
        h = refine_splits(param, h)
    return eval_character_on_image(param, h_image(param, h))


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


class VirtualRep:
    """Formal integer combination of parameter labels."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return VirtualRep(out)

    def __neg__(self) -> "VirtualRep":
        return VirtualRep({k: -v for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, VirtualRep) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"VirtualRep({len(self.terms)} terms)"

    def to_json(self):
        return {repr(k): v for k, v in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))}


def _sign_maps(blocks: tuple[int, ...]):
    if not blocks:
        yield {}
        return
    head, tail = blocks[0], blocks[1:]
    for rest in _sign_maps(tail):
        for s in (1, -1):
            yield {head: s, **rest}


def virtual_rep(triple: AssembledTriple) -> VirtualRep:
    """Sum over all characters epsilon of epsilon(h) times the labeled term.

    One term per choice of signs on the even blocks of lambda+ and lambda-,
    with coefficient epsilon(h) in {+-1}.
    """
    s = triple.s_split()
    lam_plus, lam_minus = s.part_plus, s.part_minus
    terms = {}
    for eps_p in _sign_maps(lam_plus.jord_bp):
        for eps_m in _sign_maps(lam_minus.jord_bp):
            param = UnipQuadParam(lam_plus, lam_minus, eps_p, eps_m)
            terms[param.label()] = eval_character(param, triple)
    return VirtualRep(terms)
