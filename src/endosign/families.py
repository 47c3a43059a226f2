"""Family combinatorics for the even orthogonal transfer computation.

For a pair (r', r'') of nonnegative integers of equal parity put
R = max, r = min.  Index slots 1..R carry residue entries (slots up to
R - r, valued in F_q^x) or square-class entries (the top r slots, valued
in {+1, -1}).  This module enumerates:

  * admissible assignment vectors gamma (pairwise-distinct residues on the
    even-indexed pair slots, plus a global sign condition tying the product
    of entry signs to the unit part of eta and the two class signs),
  * sign vectors e (plain tuples of +-1, e_j at index j - 1) with their
    distinguished subgroup and kappa characters,
  * block vectors u (tuples of 0 and 1) with the kappa character of K'',
  * transversal pairings (L1, L2) of the pair slots,
  * families of two-element square/non-square transversals with the
    reassembly map used in the product-formula fiber count.

The residue slots are exactly the pair slots' entries, so the admissible
vectors are built pair slot by pair slot from the distinct residue pairs,
carrying their Legendre sign product, and no rejected candidate is built.
A pairing splits gamma into two components gamma1 and gamma2, which are
again GammaVectors: residues on their pair slots, and (for gamma1) signs on
their top slots.  The class eta[L2, gamma] reads gamma only through
gamma2, so eta_of_L2 takes gamma2, and each caller splits a vector once
per pairing and reads the class at both class signs from that one split.
A transversal family is the plain tuple of its per-slot (G1, G2) pairs.
The reassembly side works on flat tuples: a selection is its residues
followed by its top signs, and the reassembly tallies are keyed by
gamma's flat tuple low + high, so no sweep hashes or compares a
GammaVector.  A side's selection table reads only that side's halves, so
the tallies build it once per distinct halves and shape.  The vectors feed
the image side of the counting identity and the selections its tally
side, so their builders are separate and share only legendre.

All weights and counts are exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from .localfield import ResidueParam, SquareClass, legendre


class SplitShape:
    """The slot bookkeeping attached to a pair (r', r'') of equal parity."""

    __slots__ = ("rp", "rpp", "R", "r", "t1", "t2", "jhat", "b_switch")

    def __init__(self, rp: int, rpp: int):
        if rp < 0 or rpp < 0:
            raise ValueError("r' and r'' must be nonnegative")
        if (rp - rpp) % 2:
            raise ValueError(f"r' = {rp} and r'' = {rpp} must have equal parity")
        self.rp = rp
        self.rpp = rpp
        self.R = max(rp, rpp)
        self.r = min(rp, rpp)
        self.t1 = (self.R + self.r) // 2
        self.t2 = (self.R - self.r) // 2
        self.jhat = tuple(j for j in range(2, self.R - self.r + 1, 2))
        # the branch switch B: 0 when r' >= r'', 1 otherwise
        self.b_switch = 0 if rp >= rpp else 1

    def __repr__(self):
        return f"SplitShape(rp={self.rp}, rpp={self.rpp})"


_SIGNS = frozenset((1, -1))


class GammaVector:
    """An assignment vector: residues on the low slots, signs on the high slots."""

    __slots__ = ("low", "high")

    def __init__(self, low: tuple[int, ...], high: tuple[int, ...]):
        self.low = tuple(low)
        self.high = tuple(high)
        if not _SIGNS.issuperset(self.high):
            raise ValueError("high entries must be +-1")

    def sign_product(self, rp_field: ResidueParam) -> int:
        out = 1
        for v in self.low:
            out *= legendre(v, rp_field)
        for s in self.high:
            out *= s
        return out

    def __hash__(self):
        return hash((self.low, self.high))

    def __repr__(self):
        return f"GammaVector(low={self.low}, high={self.high})"

    def to_json(self):
        return {"low": list(self.low), "high": list(self.high)}


class LPair:
    """A transversal pairing: one slot of each even pair goes to L1, the other to L2.

    l1 and l2 hold the 1-based slots; l1_index and l2_index hold their
    0-based positions in gamma.low.
    """

    __slots__ = ("l1", "l2", "l1_index", "l2_index")

    def __init__(self, l1: tuple[int, ...], l2: tuple[int, ...]):
        self.l1 = tuple(l1)
        self.l2 = tuple(l2)
        for j, (a, b) in enumerate(zip(self.l1, self.l2), start=1):
            if {a, b} != {2 * j - 1, 2 * j}:
                raise ValueError(f"pair {j} must split {{{2*j-1}, {2*j}}}, got ({a}, {b})")
        self.l1_index = tuple(slot - 1 for slot in self.l1)
        self.l2_index = tuple(slot - 1 for slot in self.l2)

    def __repr__(self):
        return f"LPair(l1={self.l1}, l2={self.l2})"

    def to_json(self):
        return {"L1": sorted(self.l1), "L2": sorted(self.l2)}


def enumerate_L(shape: SplitShape) -> list[LPair]:
    """All transversal pairings; the last pair is pinned when r = 0 < R."""
    t2 = shape.t2
    choices = []
    for j in range(1, t2 + 1):
        if shape.r == 0 and j == t2:
            choices.append(((2 * j, 2 * j - 1),))  # l2 pinned to the odd slot
        else:
            choices.append(((2 * j - 1, 2 * j), (2 * j, 2 * j - 1)))
    out = []
    for combo in itertools.product(*choices):
        out.append(LPair(tuple(c[0] for c in combo), tuple(c[1] for c in combo)))
    return out


def enumerate_gamma(shape: SplitShape, rp_field: ResidueParam,
                    target: int) -> list[GammaVector]:
    """All admissible assignment vectors for shape whose entry signs multiply to target.

    Admissibility: on every even pair slot j the residues at j-1 and j
    differ, and the product of all entry signs equals target.  For
    (eta, w', w'') the target is sgn_cd(w') * sgn_cd(w'') * unit(eta).

    The low slots are the pair slots' residue pairs, so the low tuples are
    built pair slot by pair slot from the distinct residue pairs (a, b),
    each with its Legendre sign product, carrying the tuple's sign product;
    each low tuple then takes the top-sign tuples whose product makes up
    target.  No rejected candidate is built, and the vectors come out in
    lexicographic order of low, then high.
    """
    if target not in (1, -1):
        raise ValueError(f"target must be +-1, got {target}")
    signs = {v: legendre(v, rp_field) for v in rp_field.units()}
    residue_pairs = [((a, b), sa * sb) for a, sa in signs.items()
                     for b, sb in signs.items() if a != b]
    # one lazy extension per pair slot, so no level's tuples are held as a list
    lows = [((), 1)]
    for _ in shape.jhat:
        lows = ((low + pair, sign * pair_sign)
                for low, sign in lows for pair, pair_sign in residue_pairs)
    tops = {1: [], -1: []}
    for high in itertools.product((1, -1), repeat=shape.r):
        tops[math.prod(high)].append(high)
    return [GammaVector(low, high) for low, sign in lows for high in tops[sign * target]]


def kappa_u(u: tuple[int, ...], k_second: tuple[int, ...]) -> int:
    """(-1)^(sum of u over the second block K''), whose 1-based indices are k_second."""
    return -1 if sum(u[k - 1] for k in k_second) % 2 else 1


def in_distinguished_subgroup(e: tuple[int, ...], shape: SplitShape) -> bool:
    """e_{j-1} = e_j for every even pair slot j strictly below R."""
    return all(e[j - 2] == e[j - 1] for j in shape.jhat if j < shape.R)


def kappa_zero(e: tuple[int, ...], shape: SplitShape) -> int:
    """Product of e_{j-1} over even pair slots; defined on the distinguished subgroup."""
    if not in_distinguished_subgroup(e, shape):
        raise ValueError("kappa_zero is only defined on the distinguished subgroup")
    out = 1
    for j in shape.jhat:
        out *= e[j - 2]
    return out


def kappa_l2(e: tuple[int, ...], pair: LPair) -> int:
    """Product of e over the L2 slots."""
    out = 1
    for slot in pair.l2:
        out *= e[slot - 1]
    return out


def transversal_character_sum(e: tuple[int, ...], pairs: list[LPair]) -> int:
    """Sum of kappa_l2(e) over pairs, a shape's transversal pairings (enumerate_L).

    Vanishes off the distinguished subgroup and equals |pairings| times
    kappa_zero(e) on it.
    """
    return sum(kappa_l2(e, pair) for pair in pairs)


def kappa_sum_law(e: tuple[int, ...], shape: SplitShape) -> int:
    """The distinguished-subgroup law of transversal_character_sum, from closed forms.

    0 off the distinguished subgroup; on it |pairings| * kappa_zero(e), with
    |pairings| = 2^t2, or 2^(t2-1) when r = 0 < R and the last pair is pinned.
    """
    if not in_distinguished_subgroup(e, shape):
        return 0
    pinned = shape.r == 0 < shape.R
    return 2 ** (shape.t2 - pinned) * kappa_zero(e, shape)


def enumerate_e(shape: SplitShape) -> list[tuple[int, ...]]:
    """All sign vectors of length R, as tuples of +-1."""
    return list(itertools.product((1, -1), repeat=shape.R))


def gamma_L_split(gamma: GammaVector, pair: LPair) -> tuple[GammaVector, GammaVector]:
    """Split gamma along (L1, L2) into its components gamma1 and gamma2.

    gamma1 takes the residues at the L1 slots and all the top signs of
    gamma (length t1); gamma2 takes the residues at the L2 slots (length t2).
    """
    at = gamma.low.__getitem__
    return (GammaVector(tuple(map(at, pair.l1_index)), gamma.high),
            GammaVector(tuple(map(at, pair.l2_index)), ()))


def eta_of_L2(comp2: GammaVector, shape: SplitShape, scd2: int,
              rp_field: ResidueParam) -> SquareClass:
    """The square class eta[L2, gamma], read off gamma's L2 component comp2.

    comp2 is gamma2, the second value of gamma_L_split(gamma, pair); the
    class depends on gamma only through it.  Characterized by: valuation
    parity t2, and unit sign times the product of comp2's signs equal to
    scd2 = sgn_cd(w'').
    """
    return SquareClass(shape.t2 % 2, scd2 * comp2.sign_product(rp_field))


def _slot_choices(rp_field: ResidueParam) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    squares = sorted(rp_field.squares())
    nonsquares = sorted(set(rp_field.units()) - set(squares))
    out = []
    for g1 in itertools.product(squares, nonsquares):
        for g2 in itertools.product(squares, nonsquares):
            if g1[0] != g2[0] and g1[1] != g2[1]:
                out.append((g1, g2))
    return out


def enumerate_transversal_families(shape: SplitShape, choices: list):
    """A lazy iterator over the families of disjoint transversal pairs over the pair slots.

    A family is the tuple of its t2 per-slot pairs (G1, G2), drawn from
    choices (the per-slot choices of _slot_choices): each of G1, G2 is
    (square element, non-square element) and the four residues are
    pairwise distinct.
    """
    return itertools.product(choices, repeat=shape.t2)


def count_transversal_families(shape: SplitShape, choices: list) -> int:
    """|families| by per-slot enumeration (slots are independent by construction)."""
    return len(choices) ** shape.t2


def transversal_family_count_formula(shape: SplitShape, rp_field: ResidueParam) -> Fraction:
    """Closed form 2^(-4 t2) (q-1)^(2 t2) (q-3)^(2 t2)."""
    q = rp_field.q
    t2 = shape.t2
    return Fraction((q - 1) ** (2 * t2) * (q - 3) ** (2 * t2), 2 ** (4 * t2))


def family_selections(halves, r: int, rp_field: ResidueParam) -> dict[int, list[tuple[int, ...]]]:
    """Selections gamma_j from one side of a family, keyed by sign product.

    halves holds one transversal per pair slot, a family's G1s on side 1 and
    its G2s on side 2, and r counts the side's free top signs: shape.r on
    side 1, 0 on side 2.  A selection is the flat tuple of one residue per
    half followed by its top signs, and its sign product is the product of
    the Legendre symbols of the residues and the top signs.  The selections
    for (eta_j, w_j) are those whose sign product times unit(eta_j) equals
    sgn_cd(w_j): the bucket at sgn_cd(w_j) * unit(eta_j).
    """
    # (residues, Legendre sign product) of every choice of residues, slot by slot
    lows = [((), 1)]
    for half in halves:
        lows = [(low + (v,), sign * legendre(v, rp_field)) for low, sign in lows for v in half]
    tops = [(high, math.prod(high)) for high in itertools.product((1, -1), repeat=r)]
    out = {1: [], -1: []}
    for low, low_sign in lows:
        for high, high_sign in tops:
            out[low_sign * high_sign].append(low + high)
    return out


def reassemble(pair: LPair, shape: SplitShape) -> operator.itemgetter:
    """The reassembly map along pair, as a gather from components to gamma.

    The returned itemgetter maps comp1 + comp2 to gamma's flat tuple
    low + high, where comp1 is a side-1 selection (t2 residues, then r top
    signs) and comp2 a side-2 selection (t2 residues), as family_selections
    builds them: the L1 slots of gamma take comp1's residues, the L2 slots
    comp2's, and the top slots comp1's signs.  GammaVector(flat[:R-r],
    flat[R-r:]) is gamma.  The caller checks the component lengths.
    """
    t2, r = shape.t2, shape.r
    if t2 == 0:
        # gamma is comp1; a slice, since a one-index itemgetter returns a bare entry
        return operator.itemgetter(slice(None))
    order = [0] * (2 * t2)
    for i, (slot1, slot2) in enumerate(zip(pair.l1, pair.l2)):
        order[slot1 - 1] = i
        order[slot2 - 1] = t2 + r + i
    return operator.itemgetter(*order, *range(t2, t2 + r))


def reassembly_tallies(shape: SplitShape, pairs: list[LPair], choices: list,
                       rp_field: ResidueParam) -> dict[tuple[int, int], list[dict]]:
    """(tau1, tau2) -> per pairing, gamma's flat tuple low + high -> its number of preimages.

    A preimage joins a selection from a family's side-1 bucket at tau1 (its
    G1s, shape.r top signs) and one from its side-2 bucket at tau2 (its G2s).
    A side's selection table reads only that side's halves, so each distinct
    halves' table is built once per side, on first sight, and kept until the
    shape's tallies are built: at most ((q-1)^2/4)^t2 tables a side.  One
    pass over the families counts each joined pair comp1 + comp2 per (tau1,
    tau2); each pairing's gather then maps every distinct joined pair once
    and adds its count.  That is the per-preimage tally summed in another
    order, so it holds for any gather, also one that sends two joined pairs
    to one gamma.
    """
    gathers = [reassemble(pair, shape) for pair in pairs]

    def table(built: dict, halves: tuple, r: int) -> dict[int, list[tuple[int, ...]]]:
        selections = built.get(halves)
        if selections is None:
            selections = built[halves] = family_selections(halves, r, rp_field)
            if {*map(len, selections[1]), *map(len, selections[-1])} != {shape.t2 + r}:
                raise ValueError("component lengths do not match the shape")
        return selections

    built1, built2 = {}, {}
    joined = {taus: Counter() for taus in itertools.product((1, -1), (1, -1))}
    for family in enumerate_transversal_families(shape, choices):
        side1 = table(built1, tuple(g1 for g1, _ in family), shape.r)
        side2 = table(built2, tuple(g2 for _, g2 in family), 0)
        for (tau1, tau2), counts in joined.items():
            counts.update(itertools.starmap(
                operator.add, itertools.product(side1[tau1], side2[tau2])))
    tallies = {}
    for taus, counts in joined.items():
        tallies[taus] = row = []
        for gather in gathers:
            tally: dict[tuple, int] = {}
            for flat, n in zip(map(gather, counts), counts.values()):
                tally[flat] = tally.get(flat, 0) + n
            row.append(tally)
    return tallies


def image_groups(shape: SplitShape, pairs: list[LPair], gammas: dict[int, list[GammaVector]],
                 rp_field: ResidueParam) -> dict[tuple, list[int]]:
    """(pairing index, target, sgn_cd(w2), eta[L2, gamma]'s parity and unit) -> positions.

    gammas maps each sign target sgn_cd(w1) sgn_cd(w2) unit(eta) to its
    admissible vectors; a key lists the positions in gammas[target] of its
    image's vectors, in order.  Each (pairing, vector) is split once, and
    its L2 component read by eta_of_L2 once per sgn_cd(w2).
    """
    images: dict[tuple, list[int]] = {}
    for pi, pair in enumerate(pairs):
        for target, vectors in gammas.items():
            for j, g in enumerate(vectors):
                comp2 = gamma_L_split(g, pair)[1]
                for scd2 in (1, -1):
                    eta_l2 = eta_of_L2(comp2, shape, scd2, rp_field)
                    images.setdefault((pi, target, scd2, eta_l2.val_parity, eta_l2.unit_sign),
                                      []).append(j)
    return images


def fiber_size_prediction(gamma: GammaVector, shape: SplitShape,
                          rp_field: ResidueParam) -> Fraction:
    """Predicted fiber size, a Fraction: ((q-3)/4)^t2 * prod over even pair slots (q-2+sgn)."""
    q = rp_field.q
    product = 1
    for j in shape.jhat:
        product *= q - 2 + legendre(gamma.low[j - 2] * gamma.low[j - 1], rp_field)
    return Fraction((q - 3) ** shape.t2 * product, 4 ** shape.t2)


def slot_pair_counts(choices: list) -> Counter:
    """(x, y) -> the number of transversal pairs (G1, G2) in choices with x in G1 and y in G2.

    One pass over choices (the per-slot choices of _slot_choices); within a
    pair the two residues of G1 and the two of G2 are distinct, so each
    (x, y) is counted at most once per pair.  A residue pair that no choice
    covers counts 0.
    """
    return Counter((x, y) for g1, g2 in choices for x in g1 for y in g2)


def fiber_count_check(gamma: GammaVector, pair: LPair, counts: Counter) -> int:
    """The number of reassembly preimages of gamma along pair, counted slotwise.

    gamma must lie in the image.  The count multiplies, over pair slots, the
    number of transversal pairs (G1, G2) with the slot's L1 residue in G1
    and its L2 residue in G2, read from counts (the slot_pair_counts of the
    field's per-slot choices).
    """
    observed = 1
    for l1, l2 in zip(pair.l1, pair.l2):
        observed *= counts[gamma.low[l1 - 1], gamma.low[l2 - 1]]
    return observed
