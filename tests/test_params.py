import pytest

from endosign.params import (MINUS, PLUS, UnipQuadParam, assemble_triple, endoscopic_pairs,
                             restrict)
from endosign.partitions import Partition, SymplecticPartition as sp


def uq(lp, lm, ep=None, em=None):
    return UnipQuadParam(sp(lp), sp(lm), ep, em)


def test_endoscopic_pairs():
    assert endoscopic_pairs(0) == [(0, 0)]
    assert endoscopic_pairs(2) == [(0, 2), (1, 1), (2, 0)]
    assert len(endoscopic_pairs(5)) == 6


def test_assemble_triple_h_split():
    t1 = uq([2], [])
    t2 = uq([1, 1], [])
    cells = assemble_triple(t1, t2, (1, 1))
    # h is +1 on the first factor's cells and -1 on the second's
    assert cells[PLUS, PLUS] == Partition([2])
    assert cells[PLUS, MINUS] == Partition([1, 1])
    assert cells[MINUS, PLUS] == cells[MINUS, MINUS] == Partition()


def test_assemble_triple_degenerate_factor():
    t1 = uq([2, 2], [])
    t2 = uq([], [])
    cells = assemble_triple(t1, t2, (2, 0))
    assert cells[PLUS, PLUS] == Partition([2, 2])
    assert all(part.size() == 0 for part in restrict(cells, MINUS))


def test_assemble_triple_s_split():
    t1 = uq([2], [])
    t2 = uq([], [2])
    cells = assemble_triple(t1, t2, (1, 1))
    # s is +1 on the plus-partitions' cells and -1 on the minus-partitions'
    assert cells[PLUS, PLUS] == cells[MINUS, MINUS] == Partition([2])
    assert cells[PLUS, MINUS] == cells[MINUS, PLUS] == Partition()


def test_assemble_size_mismatch():
    with pytest.raises(ValueError):
        assemble_triple(uq([2], []), uq([2], []), (1, 2))


def test_restriction_recovers_factors():
    t1 = uq([2], [1, 1])
    t2 = uq([4], [2])
    cells = assemble_triple(t1, t2, (2, 3))
    assert restrict(cells, PLUS) == (t1.lam_plus, t1.lam_minus)
    assert restrict(cells, MINUS) == (t2.lam_plus, t2.lam_minus)
    # each factor comes back as the very partitions it was built from
    assert all(a is b for a, b in zip(restrict(cells, PLUS) + restrict(cells, MINUS),
                                      (t1.lam_plus, t1.lam_minus, t2.lam_plus, t2.lam_minus)))


def test_assembled_triple_is_the_dict_of_its_four_cells():
    t1 = uq([2, 1, 1], [4])
    t2 = uq([2], [])
    cells = assemble_triple(t1, t2, (4, 1))
    factors = {(PLUS, PLUS): t1.lam_plus, (MINUS, PLUS): t1.lam_minus,
               (PLUS, MINUS): t2.lam_plus, (MINUS, MINUS): t2.lam_minus}
    assert type(cells) is dict and cells.keys() == factors.keys()
    assert all(cells[key] is factor for key, factor in factors.items())


def test_eps_map_validation():
    with pytest.raises(ValueError):
        UnipQuadParam(sp([2]), sp([]), {4: 1}, None)
    with pytest.raises(ValueError):
        UnipQuadParam(sp([2]), sp([]), {2: 0}, None)
