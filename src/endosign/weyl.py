"""Conjugacy-class combinatorics of the hyperoctahedral group W_N and of S_d.

A class of W_N (signed permutations of N letters) is the partition pair
(alpha, beta) with |alpha| + |beta| = N that signed_cycle_type returns:
alpha lists the lengths of positive cycles, beta those of negative cycles.
A class of S_d is its partition of d.  Class sizes come from the standard
centralizer orders; a brute-force signed-permutation oracle validates them
at small N.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial

from .errors import ResourceLimitError
from .partitions import Partition

BRUTE_FORCE_CAP = 6


def order_b(N: int) -> int:
    """Order of W_N: 2^N * N!."""
    return (1 << N) * factorial(N)


def _centralizer_factor(p: Partition, cycle_weight: int) -> int:
    z = 1
    for k, m in p.counter().items():
        z *= (cycle_weight * k) ** m * factorial(m)
    return z


def class_size_b(c: tuple[Partition, Partition]) -> int:
    """Size of the W_N class (alpha, beta), N = |alpha| + |beta|.

    The centralizer order is prod_k (2k)^{m_k(alpha)} m_k(alpha)! times the
    same product over beta; validated against the signed-permutation oracle.
    """
    alpha, beta = c
    N = alpha.size() + beta.size()
    z = _centralizer_factor(alpha, 2) * _centralizer_factor(beta, 2)
    size, rem = divmod(order_b(N), z)
    if rem:
        raise ArithmeticError(f"centralizer order {z} does not divide |W_{N}|")
    return size


def class_size_a(pi: Partition) -> int:
    """Size of the S_d class pi, d = |pi|: d! / prod_k k^{m_k} m_k!."""
    d = pi.size()
    z = _centralizer_factor(pi, 1)
    size, rem = divmod(factorial(d), z)
    if rem:
        raise ArithmeticError(f"centralizer order {z} does not divide {d}!")
    return size


def sgn_cd(c: tuple[Partition, Partition]) -> int:
    """Sign character (-1)^(number of parts of beta) of the class (alpha, beta)."""
    return -1 if c[1].length() % 2 else 1


# ---------------------------------------------------------------------------
# Brute-force oracle: explicit signed permutations.
#
# An element w of W_N acts on basis vectors by w(e_i) = signs[i] * e_{perm[i]}.
# Composition (w1 * w2)(e_i) = signs2[i] * signs1[perm2[i]] * e_{perm1[perm2[i]]}.
# ---------------------------------------------------------------------------

SignedPerm = tuple[tuple[int, ...], tuple[int, ...]]


def signed_permutations(N: int):
    """All 2^N N! signed permutations of {0..N-1}."""
    if N > BRUTE_FORCE_CAP:
        raise ResourceLimitError(f"signed-permutation enumeration capped at {BRUTE_FORCE_CAP}")
    for perm in itertools.permutations(range(N)):
        for signs in itertools.product((1, -1), repeat=N):
            yield perm, signs


def signed_mul(w1: SignedPerm, w2: SignedPerm) -> SignedPerm:
    perm1, signs1 = w1
    perm2, signs2 = w2
    n = len(perm1)
    perm = tuple(perm1[perm2[i]] for i in range(n))
    signs = tuple(signs2[i] * signs1[perm2[i]] for i in range(n))
    return perm, signs


def signed_inv(w: SignedPerm) -> SignedPerm:
    perm, signs = w
    n = len(perm)
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv), tuple(signs[inv[j]] for j in range(n))


def signed_cycle_type(w: SignedPerm) -> tuple[Partition, Partition]:
    """Cycle type (alpha, beta): positive cycles in alpha, negative in beta."""
    perm, signs = w
    n = len(perm)
    seen = [False] * n
    pos, neg = [], []
    for start in range(n):
        if seen[start]:
            continue
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            sign *= signs[i]
            length += 1
            i = perm[i]
        (pos if sign == 1 else neg).append(length)
    return Partition(pos), Partition(neg)


def brute_class_sizes(N: int) -> Counter:
    """Class sizes of W_N by full enumeration and cycle-type extraction."""
    return Counter(map(signed_cycle_type, signed_permutations(N)))


def conjugation_orbit_sizes(N: int) -> dict[tuple[Partition, Partition], int]:
    """Class sizes of W_N by explicit conjugation orbits, keyed by signed_cycle_type.

    The orbits are found without cycle types; each is labeled by one element's type.
    """
    if N > 3:
        raise ResourceLimitError("conjugation-orbit oracle capped at N = 3")
    group = list(signed_permutations(N))
    remaining = set(group)
    sizes = {}
    while remaining:
        w = next(iter(remaining))
        orbit = {signed_mul(signed_mul(h, w), signed_inv(h)) for h in group}
        remaining -= orbit
        sizes[signed_cycle_type(w)] = len(orbit)
    return sizes


def brute_class_sizes_a(d: int) -> Counter:
    """Class sizes of S_d by full enumeration."""
    if d > 7:
        raise ResourceLimitError("symmetric-group enumeration capped at d = 7")
    # with every sign +1, all cycles are positive
    return Counter(signed_cycle_type((perm, (1,) * d))[0]
                   for perm in itertools.permutations(range(d)))
