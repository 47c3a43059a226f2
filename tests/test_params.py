import pytest

from endosign.params import MINUS, PLUS, UnipQuadParam, assemble_triple, endoscopic_pairs
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
    # h is +1 on the first factor's cells and -1 on the second's
    assert triple.cells[PLUS, PLUS] == Partition([2])
    assert triple.cells[PLUS, MINUS] == Partition([1, 1])
    assert triple.cells[MINUS, PLUS] == triple.cells[MINUS, MINUS] == Partition()


def test_assemble_triple_degenerate_factor():
    t1 = uq([2, 2], [])
    t2 = uq([], [])
    triple = assemble_triple(t1, t2, (2, 0))
    assert triple.cells[PLUS, PLUS] == Partition([2, 2])
    assert all(part.total == 0 for part in triple.restrict(MINUS))


def test_assemble_triple_s_split():
    t1 = uq([2], [])
    t2 = uq([], [2])
    triple = assemble_triple(t1, t2, (1, 1))
    # s is +1 on the plus-partitions' cells and -1 on the minus-partitions'
    assert triple.cells[PLUS, PLUS] == triple.cells[MINUS, MINUS] == Partition([2])
    assert triple.cells[PLUS, MINUS] == triple.cells[MINUS, PLUS] == Partition()


def test_assemble_size_mismatch():
    with pytest.raises(ValueError):
        assemble_triple(uq([2], []), uq([2], []), (1, 2))


def test_restriction_recovers_factors():
    t1 = uq([2], [1, 1])
    t2 = uq([4], [2])
    triple = assemble_triple(t1, t2, (2, 3))
    assert triple.restrict(PLUS) == (t1.lam_plus, t1.lam_minus)
    assert triple.restrict(MINUS) == (t2.lam_plus, t2.lam_minus)


def test_eps_map_validation():
    with pytest.raises(ValueError):
        UnipQuadParam(sp([2]), sp([]), {4: 1}, None)
    with pytest.raises(ValueError):
        UnipQuadParam(sp([2]), sp([]), {2: 0}, None)
