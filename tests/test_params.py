import pytest

from endosign.params import (MINUS, PLUS, UnipQuadParam, assemble_triple, endoscopic_pairs,
                             eval_character, involution_swap, virtual_rep)
from endosign.partitions import Partition, SymplecticPartition


def sp(parts):
    return SymplecticPartition(Partition(parts))


def uq(lp, lm, ep=None, em=None):
    return UnipQuadParam(sp(lp), sp(lm), ep, em)


def test_endoscopic_pairs():
    assert endoscopic_pairs(0) == [(0, 0)]
    assert endoscopic_pairs(2) == [(0, 2), (1, 1), (2, 0)]
    assert len(endoscopic_pairs(5)) == 6


def test_assemble_triple_h_split():
    t1 = uq([2], [])
    t2 = uq([1, 1], [])
    triple = assemble_triple(t1, t2, (1, 1))
    assert triple.lam.to_json() == [2, 1, 1]
    h_plus, h_minus = triple.h_split()
    assert h_plus.to_json() == [2] and h_minus.to_json() == [1, 1]


def test_assemble_triple_degenerate_factor():
    t1 = uq([2, 2], [])
    t2 = uq([], [])
    triple = assemble_triple(t1, t2, (2, 0))
    assert triple.h_split()[1].total == 0
    assert triple.lam.to_json() == [2, 2]


def test_assemble_triple_s_split():
    t1 = uq([2], [])
    t2 = uq([], [2])
    triple = assemble_triple(t1, t2, (1, 1))
    s_plus, s_minus = triple.s_split()
    assert s_plus.to_json() == [2] and s_minus.to_json() == [2]


def test_assemble_size_mismatch():
    with pytest.raises(ValueError):
        assemble_triple(uq([2], []), uq([2], []), (1, 2))


def test_restriction_recovers_factors():
    t1 = uq([2], [1, 1])
    t2 = uq([4], [2])
    triple = assemble_triple(t1, t2, (2, 3))
    assert triple.restrict(PLUS) == (t1.lam_plus, t1.lam_minus)
    assert triple.restrict(MINUS) == (t2.lam_plus, t2.lam_minus)


def test_involution_swap():
    triple = assemble_triple(uq([2], [1, 1]), uq([], [2]), (2, 1))
    swapped = involution_swap(triple)
    assert swapped.s_split() == triple.h_split()
    assert swapped.h_split() == triple.s_split()
    assert swapped.to_json()["s"] == triple.to_json()["h"] == {"plus": [2, 1, 1], "minus": [2]}
    assert swapped.to_json()["h"] == triple.to_json()["s"]
    assert involution_swap(swapped) == triple
    # trivial h becomes trivial s after the swap
    t = assemble_triple(uq([2], []), uq([], []), (1, 0))
    assert involution_swap(t).s_split()[1].total == 0


def test_eval_character_trivial_h():
    param = uq([2], [2], {2: -1}, {2: -1})
    triple = assemble_triple(param, uq([], []), (2, 0))
    assert eval_character(param, triple) == 1


def test_eval_character_split_pair():
    # one copy of the even part 2 on each side of h: epsilon(2) appears once
    t1 = uq([2], [])
    t2 = uq([2], [])
    triple = assemble_triple(t1, t2, (1, 1))
    param = UnipQuadParam(sp([2, 2]), sp([]), {2: -1}, None)
    assert eval_character(param, triple) == -1
    param_plus = UnipQuadParam(sp([2, 2]), sp([]), {2: 1}, None)
    assert eval_character(param_plus, triple) == 1




def test_virtual_rep_counts():
    triple = assemble_triple(uq([2], []), uq([], []), (1, 0))
    rep = virtual_rep(triple)
    assert len(rep) == 2 and set(rep.values()) == {1}

    empty_blocks = assemble_triple(uq([1, 1], []), uq([], [1, 1]), (1, 1))
    rep = virtual_rep(empty_blocks)
    assert len(rep) == 1 and set(rep.values()) == {1}

    split_pair = assemble_triple(uq([2], []), uq([2], []), (1, 1))
    rep = virtual_rep(split_pair)
    assert sorted(rep.values()) == [-1, 1]



def test_virtual_rep_count_follows_each_splitting():
    # the term count is 2 to the number of even blocks of the character
    # slot's own splitting; the two slots of a triple can disagree ([2,2]
    # against [2] | [2] has one block on one side, two on the other)
    triple = assemble_triple(uq([2], []), uq([2], []), (1, 1))
    assert len(virtual_rep(triple)) == 2  # s-split is ([2,2] | empty)
    swapped = involution_swap(triple)
    assert len(virtual_rep(swapped)) == 4  # s-split is now ([2] | [2])
    for t in (triple, swapped):
        s_plus, s_minus = t.s_split()
        blocks = len(s_plus.jord_bp) + len(s_minus.jord_bp)
        assert len(virtual_rep(t)) == 2 ** blocks


def test_eps_map_validation():
    with pytest.raises(ValueError):
        UnipQuadParam(sp([2]), sp([]), {4: 1}, None)
    with pytest.raises(ValueError):
        UnipQuadParam(sp([2]), sp([]), {2: 0}, None)
