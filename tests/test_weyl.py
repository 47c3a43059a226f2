from math import factorial, prod

from endosign.partitions import Partition, enumerate_partitions
from endosign.weyl import (brute_class_sizes, brute_class_sizes_a, class_size_a,
                           class_size_b, conjugation_orbit_sizes, order_b, sgn_cd,
                           signed_cycle_type, signed_permutations)


def bclass(alpha, beta):
    return Partition(alpha), Partition(beta)


def test_class_size_b_frozen_small_values():
    # derived by brute-force enumeration of the 8 signed permutations of {1,2}
    assert class_size_b(bclass([1], [1])) == 2
    assert class_size_b(bclass([], [2])) == 2
    assert class_size_b(bclass([1, 1, 1], [])) == 1  # identity element


def test_class_size_b_matches_brute_force():
    for N in range(5):
        brute = brute_class_sizes(N)
        for c, size in brute.items():
            assert class_size_b(c) == size
        assert sum(brute.values()) == order_b(N)
        # every labeled class occurs
        all_pairs = {(a, b)
                     for k in range(N + 1)
                     for a in enumerate_partitions(k)
                     for b in enumerate_partitions(N - k)}
        assert set(brute) == all_pairs


def test_class_sizes_by_conjugation_orbits():
    for N in range(4):
        assert conjugation_orbit_sizes(N) == brute_class_sizes(N)


def test_class_size_formula_total_beyond_oracle():
    # at N = 6 the formula must still resolve the full group order
    N = 6
    total = 0
    for k in range(N + 1):
        for a in enumerate_partitions(k):
            for b in enumerate_partitions(N - k):
                total += class_size_b((a, b))
    assert total == order_b(N)


def test_class_size_a_values():
    assert class_size_a(Partition([1, 1, 1])) == 1
    assert class_size_a(Partition([3])) == 2
    assert class_size_a(Partition([2, 1])) == 3


def test_class_size_a_matches_brute_force():
    for d in range(7):
        brute = brute_class_sizes_a(d)
        for c, size in brute.items():
            assert class_size_a(c) == size
        assert sum(brute.values()) == factorial(d)


def test_sgn_cd():
    assert sgn_cd(bclass([2], [])) == 1
    assert sgn_cd(bclass([], [2, 1])) == 1
    assert sgn_cd(bclass([1], [3])) == -1


def test_sgn_cd_is_the_product_of_the_signs():
    # oracle: on a signed permutation, sgn_cd is the product of its signs
    # (each negative cycle carries an odd number of sign changes)
    for N in range(6):
        for w in signed_permutations(N):
            assert sgn_cd(signed_cycle_type(w)) == prod(w[1])


def test_sgn_cd_multiplicative_under_splits():
    # splitting beta into plus/minus sectors and f-scaled all-odd blocks
    # multiplies the sign character by (-1)^(block total)
    import itertools
    for total in range(0, 9):
        for beta in enumerate_partitions(total):
            for fs in ((), (1,), (2,)):
                nbins = 2 + len(fs)
                for assign in itertools.product(range(nbins), repeat=beta.length()):
                    bins = [[] for _ in range(nbins)]
                    for part, where in zip(beta.parts, assign):
                        bins[where].append(part)
                    inner_total = 0
                    ok = True
                    for f, raw in zip(fs, bins[2:]):
                        if any(p % f or (p // f) % 2 == 0 for p in raw):
                            ok = False
                            break
                        inner_total += sum(p // f for p in raw)
                    if not ok:
                        continue
                    lhs = sgn_cd((Partition(), beta))
                    rhs = sgn_cd(bclass([], bins[0])) * sgn_cd(bclass([], bins[1])) \
                        * (-1) ** (inner_total % 2)
                    assert lhs == rhs
