import pytest

from endosign.errors import ResourceLimitError
from endosign.partitions import (Partition, SymplecticPartition, enumerate_partitions,
                                 enumerate_symplectic, is_symplectic)


def test_partition_rejects_nonpositive():
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([-1])


def test_is_symplectic_definition():
    assert is_symplectic(Partition([2, 1, 1]), 4)
    assert not is_symplectic(Partition([3, 1]), 4)
    assert is_symplectic(Partition([4]), 4)
    with pytest.raises(ValueError):
        is_symplectic(Partition([3]), 3)


def test_enumerate_symplectic_small():
    assert [sp.to_json() for sp in enumerate_symplectic(0)] == [[]]
    assert [sp.to_json() for sp in enumerate_symplectic(2)] == [[2], [1, 1]]
    assert [sp.to_json() for sp in enumerate_symplectic(4)] == \
        [[4], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_enumerate_symplectic_against_brute_filter():
    # oracle: full partition generator filtered by the odd-multiplicity rule
    for two_n in range(0, 18, 2):
        brute = [p for p in enumerate_partitions(two_n)
                 if all(m % 2 == 0 for k, m in p.counter().items() if k % 2)]
        got = enumerate_symplectic(two_n)
        assert got == brute
        assert len(set(got)) == len(got)
        assert all(is_symplectic(sp, two_n) for sp in got)


def test_enumeration_order_is_lex_descending():
    seen = [p.parts for p in enumerate_partitions(6)]
    assert seen == sorted(seen, reverse=True)


def test_enumerate_symplectic_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_symplectic(42)
    with pytest.raises(ValueError):
        enumerate_symplectic(3)


def test_jord_bp_lists_distinct_even_parts():
    sp = SymplecticPartition([4, 4, 3, 3, 2, 1, 1])
    assert sp.jord_bp == (4, 2)
    assert SymplecticPartition([1, 1]).jord_bp == ()


def test_jord_bp_is_set_once_and_equals_the_distinct_even_parts():
    # a slot filled at construction, not recomputed on each read
    assert "jord_bp" in SymplecticPartition.__slots__
    for two_n in range(0, 18, 2):
        for sp in enumerate_symplectic(two_n):
            assert sp.jord_bp == tuple(sorted({k for k in sp.parts if k % 2 == 0},
                                              reverse=True))


def test_symplectic_constructor_validates():
    with pytest.raises(ValueError):
        SymplecticPartition([3, 1])
    with pytest.raises(ValueError):
        SymplecticPartition([3])
    with pytest.raises(ValueError):
        SymplecticPartition([2, 0])


def test_a_symplectic_partition_is_a_partition():
    sp = SymplecticPartition([2, 1, 1])
    assert isinstance(sp, Partition)
    assert sp == Partition([2, 1, 1]) and Partition([2, 1, 1]) == sp
    assert hash(sp) == hash(Partition([2, 1, 1]))
    assert len({sp, Partition([2, 1, 1])}) == 1
    assert sp != Partition([2, 2])
    # it adds only the even-block slot to what a Partition holds
    assert SymplecticPartition.__slots__ == ("jord_bp",)
    assert set(vars(SymplecticPartition)) == \
        {"__init__", "__slots__", "jord_bp", "__module__", "__doc__"}
    assert (sp.parts, sp.size(), sp.to_json()) == ((2, 1, 1), 4, [2, 1, 1])
