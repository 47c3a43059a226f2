import itertools
import math

import pytest

from endosign import suites
from endosign.families import (GammaVector, LPair, SplitShape, _slot_choices,
                               count_transversal_families, enumerate_e,
                               enumerate_gamma, enumerate_L,
                               enumerate_transversal_families, eta_of_L2,
                               family_selections, fiber_count_check,
                               fiber_size_prediction, gamma_L_split,
                               in_distinguished_subgroup,
                               kappa_l2, kappa_u, kappa_zero, reassemble,
                               slot_pair_counts, transversal_character_sum,
                               transversal_family_count_formula)
from endosign.localfield import ResidueParam, SquareClass, legendre

F5 = ResidueParam(5)
F7 = ResidueParam(7)


def test_shape_invariants():
    shape = SplitShape(5, 1)
    assert (shape.R, shape.r, shape.t1, shape.t2) == (5, 1, 3, 2)
    assert shape.jhat == (2, 4)
    with pytest.raises(ValueError):
        SplitShape(2, 1)
    assert [SplitShape(rp, rpp).b_switch for rp, rpp in ((5, 1), (2, 2), (1, 5), (0, 2))] \
        == [0, 0, 1, 1]


def test_gamma_vector_top_signs_are_checked():
    for high in ((0,), (2,), (1, -1, 3)):
        with pytest.raises(ValueError, match="high entries must be"):
            GammaVector((1,), high)
    assert GammaVector((1,), (1, -1, -1)).high == (1, -1, -1)


def test_pairing_indices_are_zero_based():
    pair = LPair((2, 3), (1, 4))
    assert (pair.l1_index, pair.l2_index) == ((1, 2), (0, 3))


def test_enumerate_gamma_degenerate_shapes():
    shape = SplitShape(0, 0)
    # condition holds: unique empty vector
    assert [(g.low, g.high) for g in enumerate_gamma(shape, F5, 1)] == [((), ())]
    # condition fails: empty set
    assert enumerate_gamma(shape, F5, -1) == []


def test_enumerate_gamma_target_precondition():
    for target in (0, 2, -2):
        with pytest.raises(ValueError):
            enumerate_gamma(SplitShape(3, 1), F5, target)


def brute_gamma_count(shape, q, eta_unit, target):
    # independent oracle: explicit squares set, direct product filtering
    squares = {(x * x) % q for x in range(1, q)}

    def sgn(x):
        return 1 if x % q in squares else -1

    count = 0
    nlow = shape.R - shape.r
    for low in itertools.product(range(1, q), repeat=nlow):
        if any(low[j - 2] == low[j - 1] for j in shape.jhat):
            continue
        for high in itertools.product((1, -1), repeat=shape.r):
            prod = eta_unit
            for v in low:
                prod *= sgn(v)
            for s in high:
                prod *= s
            if prod == target:
                count += 1
    return count


def test_enumerate_gamma_count_against_oracle():
    shape = SplitShape(3, 1)  # R - r = 2, r > 0
    for eta_unit in (1, -1):
        for scd1, scd2 in itertools.product((1, -1), repeat=2):
            target = scd1 * scd2 * eta_unit
            got = len(enumerate_gamma(shape, F5, target))
            want = brute_gamma_count(shape, 5, eta_unit, scd1 * scd2)
            assert got == want


def candidate_filter(shape, field, target):
    """(low, high) of every admissible vector, as a filter over all (q-1)^(R-r) 2^r candidates.

    Low tuples in lexicographic order, each followed by its top-sign tuples
    in product order: the order enumerate_gamma must keep.
    """
    out = []
    for low in itertools.product(field.units(), repeat=shape.R - shape.r):
        if any(low[j - 2] == low[j - 1] for j in shape.jhat):
            continue
        low_sign = math.prod(legendre(v, field) for v in low)
        for high in itertools.product((1, -1), repeat=shape.r):
            if low_sign * math.prod(high) == target:
                out.append((low, high))
    return out


@pytest.mark.parametrize("q", [5, 7, 11])
def test_enumerate_gamma_is_the_candidate_filter_in_order(q):
    field = ResidueParam(q)
    # every shape with R - r <= 4 and r <= 2, in both orientations
    shapes = {(rr + r, r) for rr in (0, 2, 4) for r in (0, 1, 2)}
    shapes |= {(rpp, rp) for rp, rpp in shapes}
    assert len(shapes) == 15
    for rp, rpp in sorted(shapes):
        shape = SplitShape(rp, rpp)
        for target in (1, -1):
            assert [(g.low, g.high) for g in enumerate_gamma(shape, field, target)] == \
                candidate_filter(shape, field, target)


def test_kappa_u():
    assert kappa_u((0, 0), (2,)) == 1
    assert kappa_u((0, 1), (2,)) == -1
    assert kappa_u((1, 1), ()) == 1  # empty second block


def test_kappa_zero():
    shape = SplitShape(3, 1)
    assert kappa_zero((1, 1, -1), shape) == 1  # value is e_1
    assert kappa_zero((-1, -1, 1), shape) == -1
    with pytest.raises(ValueError):
        kappa_zero((1, -1, 1), shape)  # e_1 != e_2: off the subgroup


def test_kappa_l2():
    pair = LPair((2,), (1,))
    assert kappa_l2((-1, 1), pair) == -1
    assert kappa_l2((1, 1), pair) == 1
    assert kappa_l2((), LPair((), ())) == 1


def test_enumerate_L_counts():
    assert len(enumerate_L(SplitShape(1, 1))) == 1  # R - r = 0
    assert len(enumerate_L(SplitShape(3, 1))) == 2
    pinned = enumerate_L(SplitShape(2, 0))
    assert len(pinned) == 1 and pinned[0].l2 == (1,)
    assert len(enumerate_L(SplitShape(4, 0))) == 2
    assert len(enumerate_L(SplitShape(5, 1))) == 4


def test_character_sum_identity_examples():
    shape = SplitShape(3, 1)
    pairs = enumerate_L(shape)
    sum_on = transversal_character_sum((1, 1, -1), pairs)
    assert sum_on == len(pairs) * kappa_zero((1, 1, -1), shape) == 2
    assert transversal_character_sum((1, -1, 1), pairs) == 0
    # R - r = 0: always the trivial value
    assert transversal_character_sum((1, -1), enumerate_L(SplitShape(2, 2))) == 1


def test_character_sum_identity_exhaustive():
    for rp, rpp in ((0, 0), (2, 0), (4, 0), (6, 0), (3, 1), (5, 1), (4, 2), (6, 2)):
        shape = SplitShape(rp, rpp)
        pairs = enumerate_L(shape)
        for e in enumerate_e(shape):
            total = transversal_character_sum(e, pairs)
            if in_distinguished_subgroup(e, shape):
                assert total == len(pairs) * kappa_zero(e, shape)
            else:
                assert total == 0


def test_gamma_split_degenerate():
    shape = SplitShape(2, 2)
    gamma = GammaVector((), (1, -1))
    comp1, comp2 = gamma_L_split(gamma, LPair((), ()))
    assert (comp2.low, comp2.high) == ((), ())
    assert (comp1.low, comp1.high) == ((), (1, -1))


def test_gamma_split_swaps_pair():
    shape = SplitShape(2, 0)
    gamma = GammaVector((3, 4), ())
    pair = enumerate_L(shape)[0]  # l1 = (2,), l2 = (1,)
    comp1, comp2 = gamma_L_split(gamma, pair)
    assert (comp1.low, comp1.high) == ((4,), ())
    assert (comp2.low, comp2.high) == ((3,), ())


def scatter(comp1, comp2, pair, shape):
    """The reassembly map one call at a time: the reference for the gather of reassemble.

    comp1 is a side-1 selection (t2 residues, then r top signs) and comp2 a
    side-2 selection (t2 residues); returns gamma's flat tuple low + high.
    """
    t2 = shape.t2
    if (len(comp1), len(comp2)) != (t2 + shape.r, t2):
        raise ValueError("component lengths do not match the shape")
    low = [0] * (shape.R - shape.r)
    for slot1, slot2, v1, v2 in zip(pair.l1, pair.l2, comp1[:t2], comp2):
        low[slot1 - 1] = v1
        low[slot2 - 1] = v2
    return tuple(low) + comp1[t2:]


def test_split_reassemble_roundtrip():
    for shape in (SplitShape(0, 0), SplitShape(1, 1), SplitShape(2, 2), SplitShape(2, 0),
                  SplitShape(3, 1), SplitShape(4, 2), SplitShape(5, 1)):
        for gamma in enumerate_gamma(shape, F5, 1):
            for pair in enumerate_L(shape):
                comp1, comp2 = gamma_L_split(gamma, pair)
                flat = comp1.low + comp1.high + comp2.low
                assert reassemble(pair, shape)(flat) == gamma.low + gamma.high
                assert scatter(comp1.low + comp1.high, comp2.low, pair, shape) == \
                    gamma.low + gamma.high


@pytest.mark.parametrize("field", [F5, F7])
def test_reassemble_gather_against_the_scatter(field):
    choices = _slot_choices(field)
    for t2 in range(4):
        for rp, rpp in suites._counting_shapes(t2, field.q):
            shape = SplitShape(rp, rpp)
            family = next(enumerate_transversal_families(shape, choices))
            side1 = family_selections([g1 for g1, _ in family], shape.r, field)
            side2 = family_selections([g2 for _, g2 in family], 0, field)
            for pair in enumerate_L(shape):
                gather = reassemble(pair, shape)
                for c1 in side1[1] + side1[-1]:
                    for c2 in side2[1] + side2[-1]:
                        # a tuple also at t2 = 0, where gamma has 0 or 1 entries
                        assert gather(c1 + c2) == scatter(c1, c2, pair, shape)


def test_eta_of_L2():
    shape = SplitShape(1, 1)
    _, comp2 = gamma_L_split(GammaVector((), (1,)), LPair((), ()))
    assert eta_of_L2(comp2, shape, 1, F5) == SquareClass(0, 1)
    assert eta_of_L2(comp2, shape, -1, F5) == SquareClass(0, -1)

    shape = SplitShape(2, 0)
    pair = enumerate_L(shape)[0]
    _, comp2 = gamma_L_split(GammaVector((2, 1), ()), pair)
    assert comp2.low == (2,)  # L2 component is the slot-1 entry, value 2
    got = eta_of_L2(comp2, shape, 1, F5)
    assert got == SquareClass(1, -1)  # legendre(2, 5) = -1 forces unit sign -1


def test_eta_product_relation():
    shape = SplitShape(3, 1)
    scd1, scd2 = 1, -1
    for ue in (1, -1):
        eta = SquareClass(1, ue)
        for gamma in enumerate_gamma(shape, F5, scd1 * scd2 * ue):
            for pair in enumerate_L(shape):
                # the complementary class eta[L1, gamma] = eta * eta[L2, gamma]
                # satisfies its own sign condition
                comp1, comp2 = gamma_L_split(gamma, pair)
                e1 = eta * eta_of_L2(comp2, shape, scd2, F5)
                assert e1.unit_sign * comp1.sign_product(F5) == scd1
                assert e1.val_parity == shape.t1 % 2


def test_transversal_family_counts():
    choices = {field: _slot_choices(field) for field in (F5, F7)}
    assert count_transversal_families(SplitShape(2, 0), choices[F5]) == 4
    assert count_transversal_families(SplitShape(2, 0), choices[F7]) == 36
    for t2 in (0, 1, 2):
        shape = SplitShape(2 * t2, 0)
        for field in (F5, F7):
            assert count_transversal_families(shape, choices[field]) == \
                transversal_family_count_formula(shape, field)
    fams = list(enumerate_transversal_families(SplitShape(2, 0), choices[F5]))
    assert len(fams) == 4
    for fam_ in fams:
        (g1, g2), = fam_
        assert set(g1).isdisjoint(g2)


def test_fiber_count_examples():
    shape = SplitShape(2, 0)
    counts = slot_pair_counts(_slot_choices(F5))
    for pair in enumerate_L(shape):
        for gamma in enumerate_gamma(shape, F5, 1):
            observed = fiber_count_check(gamma, pair, counts)
            s = legendre(gamma.low[0] * gamma.low[1], F5)
            assert observed == (2 if s == 1 else 1)
            assert observed == fiber_size_prediction(gamma, shape, F5)
    # trivial shape: single empty fiber
    assert fiber_count_check(GammaVector((), ()), LPair((), ()), counts) == 1
    assert fiber_size_prediction(GammaVector((), ()), SplitShape(0, 0), F5) == 1


def test_slot_pair_counts_against_the_linear_scan():
    for field in (F5, F7, ResidueParam(13)):
        choices = _slot_choices(field)
        counts = slot_pair_counts(choices)
        for x, y in itertools.product(field.units(), repeat=2):
            assert counts[x, y] == sum(1 for g1, g2 in choices if x in g1 and y in g2)


def test_family_selection_sign_condition():
    shape = SplitShape(3, 1)
    family = next(enumerate_transversal_families(shape, _slot_choices(F5)))
    for halves, r in (([g1 for g1, _ in family], shape.r), ([g2 for _, g2 in family], 0)):
        width = shape.t2 + r
        buckets = family_selections(halves, r, F5)
        assert sorted(buckets) == [-1, 1]
        for sign, sels in buckets.items():
            assert sels, "selections must exist"
            for sel in sels:
                assert len(sel) == width
                residues, tops = sel[:shape.t2], sel[shape.t2:]
                assert all(s in (1, -1) for s in tops)
                assert math.prod(legendre(v, F5) for v in residues) * math.prod(tops) == sign
        # halving: the two buckets partition all 2^width candidates
        assert len(buckets[1]) + len(buckets[-1]) == 2 ** width


@pytest.mark.parametrize("field", [F5, F7])
def test_sgn_slot_reads_the_top_signs(field):
    # the sign of every slot: Legendre signs of the residues, then the top signs
    for shape in (SplitShape(3, 1), SplitShape(5, 1)):
        for gamma in enumerate_gamma(shape, field, 1) + enumerate_gamma(shape, field, -1):
            assert len(gamma.high) == shape.r
            direct = math.prod(legendre(v, field) for v in gamma.low) * math.prod(gamma.high)
            assert gamma.sign_product(field) == direct
            # negating one top sign negates the product
            flipped = GammaVector(gamma.low, (-gamma.high[0],) + gamma.high[1:])
            assert flipped.sign_product(field) == -direct


def test_families_with_the_same_halves_get_equal_tables():
    # a side's table reads only that side's halves, so reassembly_tallies
    # builds it once per distinct halves; at q = 5 no two families share a
    # side's halves, at q = 7 each transversal pairs with four at its slot
    field = F7
    for shape in (SplitShape(3, 1), SplitShape(4, 0), SplitShape(5, 1)):
        families = list(enumerate_transversal_families(shape, _slot_choices(field)))
        for k, r in ((0, shape.r), (1, 0)):
            tables = {}
            for family in families:
                halves = tuple(pair[k] for pair in family)
                other = tuple(pair[1 - k] for pair in family)
                tables.setdefault(halves, {})[other] = family_selections(halves, r, field)
            # several families share each side's halves, with their other halves differing
            assert len(tables) < len(families)
            for halves, by_other in tables.items():
                assert len(by_other) > 1
                first = next(iter(by_other.values()))
                assert all(table == first for table in by_other.values())
