import itertools

import pytest

from endosign import descent
from endosign.constants import QuadrupleGamma, branch_switch, split_sizes
from endosign.descent import (ClassSplit, DescentDatum, assignment_sizes,
                              class_splits, descent_feasibility,
                              enumerate_size_splits, sector_size_sum, SizeSplit,
                              solve_split_family, split_class_sign, whole_class_sign)
from endosign.localfield import SquareClass
from endosign.partitions import Partition, enumerate_partitions

ONE = SquareClass(0, 1)
XI = SquareClass(0, -1)
PI = SquareClass(1, 1)


def test_descent_datum_validation_messages():
    with pytest.raises(ValueError, match="must be even"):
        DescentDatum(1, PI, 2, ONE, ())
    with pytest.raises(ValueError, match="unit signs"):
        DescentDatum(1, XI, 2, ONE, ())
    with pytest.raises(ValueError, match="ellipticity"):
        DescentDatum(2, ONE, 1, ONE, ())
    with pytest.raises(ValueError, match="blocks"):
        DescentDatum(1, ONE, 1, ONE, ((0, 1),))
    # a valid one: d = 1 needs opposite unit signs
    dd = DescentDatum(1, XI, 2, ONE, ((1, 1),))
    assert sum(b.d for b in dd.blocks) == 1


def test_feasibility():
    dd = DescentDatum(2, ONE, 2, ONE, ())
    # parity violated: r'' odd but val(eta_-) even
    assert descent_feasibility(dd, QuadrupleGamma(1, 1, 0, 0)) is None
    # worked infeasible point: r' = 1, r'' = 0 forces r'_- = 2, needs 2 n_- >= 4
    dd_small = DescentDatum(1, ONE, 1, XI, ((1, 1),))
    assert descent_feasibility(dd_small, QuadrupleGamma(1, 0, 0, 0)) is None
    # feasible: residual sizes as displayed
    assert descent_feasibility(dd, QuadrupleGamma(1, 0, 0, 0)) == (2, 0)
    # branch switch table
    assert branch_switch(2, 0) == 0
    assert branch_switch(1, 0) == 1
    assert branch_switch(1, -1) == 1


def test_enumerate_size_splits_no_blocks():
    dd = DescentDatum(1, ONE, 2, ONE, ())
    g = QuadrupleGamma(1, 0, 1, 0)
    N_plus, N_minus = descent_feasibility(dd, g)
    assert (N_plus, N_minus) == (1, 0)
    splits = enumerate_size_splits(dd, g, N_plus, N_minus)
    assert splits == [SizeSplit(1, 0, 0, 0, ())]
    # infeasible support sums: empty
    g_bad = QuadrupleGamma(1, 0, 1, 1)
    splits = enumerate_size_splits(dd, g_bad, N_plus, N_minus)
    assert splits == []


def brute_size_splits(dd, g, N_plus, N_minus):
    out = []
    ranges = [range(b.d + 1) for b in dd.blocks]
    for Np_p in range(N_plus + 1):
        for Np_m in range(N_minus + 1):
            for dps in itertools.product(*ranges):
                Npp_p = N_plus - Np_p
                Npp_m = N_minus - Np_m
                w1 = sum(dp * b.f for dp, b in zip(dps, dd.blocks))
                w2 = sum((b.d - dp) * b.f for dp, b in zip(dps, dd.blocks))
                if Np_p + Np_m + w1 == g.Np and Npp_p + Npp_m + w2 == g.Npp:
                    out.append(SizeSplit(Np_p, Np_m, Npp_p, Npp_m,
                                         tuple((dp, b.d - dp)
                                               for dp, b in zip(dps, dd.blocks))))
    return out


def test_enumerate_size_splits_matches_brute_force():
    dd = DescentDatum(2, XI, 2, ONE, ((1, 1),))  # d = 1: opposite unit signs
    for Np in range(4):
        for Npp in range(4):
            g = QuadrupleGamma(1, 0, Np, Npp)
            feas = descent_feasibility(dd, g)
            if feas is None:
                continue
            got = enumerate_size_splits(dd, g, *feas)
            want = brute_size_splits(dd, g, *feas)
            assert sorted(got) == sorted(want)


def class_split_sizes(v):
    """(|beta_+|, |beta_-|, (|beta_i|, ...)) of a class split."""
    return v.beta_plus.size(), v.beta_minus.size(), tuple(b.size() for b in v.beta_blocks)


def test_class_splits():
    combos = [v for v in class_splits(Partition([1]), ())
              if class_split_sizes(v) == (1, 0, ())]
    assert len(combos) == 1
    v1 = combos[0]
    assert v1.beta_plus.to_json() == [1] and v1.beta_minus.to_json() == []
    assert whole_class_sign(Partition([1])) == split_class_sign(v1) == -1

    # scaled block: a part must be divisible by f with odd quotient
    combos = [v for v in class_splits(Partition([2]), (2,))
              if class_split_sizes(v) == (0, 0, (1,))]
    assert len(combos) == 1  # [2] = f * [1]
    combos = [v for v in class_splits(Partition([1, 1]), (2,))
              if class_split_sizes(v) == (0, 0, (1,))]
    assert combos == []  # no part divisible by 2 summing right


def test_class_split_recombination_and_signs():
    degrees = (1, 2)
    beta = Partition([2, 2, 1, 1, 1])
    splits = list(class_splits(beta, degrees))
    # sizes 2 + 1 + blocks 2*1 + 1*2
    assert any(class_split_sizes(v) == (2, 1, (2, 1)) for v in splits)
    for v in splits:
        assert split_class_sign(v) == whole_class_sign(beta)
        parts = list(v.beta_plus.parts + v.beta_minus.parts)
        parts += [p * f for inner, f in zip(v.beta_blocks, degrees) for p in inner.parts]
        assert Partition(parts) == beta


def assign_and_dedup_splits(beta, degrees):
    """Reference: every assignment of the parts to bins, deduplicated by sorted bins."""
    nbins = 2 + len(degrees)
    seen = set()
    for assign in itertools.product(range(nbins), repeat=beta.length()):
        bins = [[] for _ in range(nbins)]
        for part, where in zip(beta.parts, assign):
            bins[where].append(part)
        key = tuple(tuple(sorted(b)) for b in bins)
        if key not in seen:
            seen.add(key)
            if all(p % f == 0 and (p // f) % 2 for f, raw in zip(degrees, bins[2:])
                   for p in raw):
                yield key


def split_key(split, degrees):
    """The split as its sorted bins, block parts scaled back by f_i."""
    blocks = tuple(tuple(sorted(p * f for p in inner.parts))
                   for inner, f in zip(split.beta_blocks, degrees))
    return (tuple(sorted(split.beta_plus.parts)), tuple(sorted(split.beta_minus.parts))) + blocks


def test_class_splits_match_the_assign_and_dedup_enumeration():
    for total in range(8):
        for beta in enumerate_partitions(total):
            for degrees in ((), (1,), (2,), (1, 2)):
                got = [split_key(v, degrees) for v in class_splits(beta, degrees)]
                want = list(assign_and_dedup_splits(beta, degrees))
                assert len(set(got)) == len(got), (beta, degrees)
                assert sorted(got) == sorted(want), (beta, degrees)


def product_then_filter_splits(beta, degrees):
    """Reference: the multisets of bins of every part, over all bins, then the all-odd filter."""
    nbins = 2 + len(degrees)
    mults = beta.counter()
    for choice in itertools.product(*(itertools.combinations_with_replacement(range(nbins), m)
                                      for m in mults.values())):
        bins = [[] for _ in range(nbins)]
        for part, wheres in zip(mults, choice):
            for where in wheres:
                bins[where].append(part)
        if all(p % f == 0 and (p // f) % 2 for f, raw in zip(degrees, bins[2:]) for p in raw):
            yield ClassSplit(Partition(bins[0]), Partition(bins[1]),
                             tuple(Partition(p // f for p in raw)
                                   for f, raw in zip(degrees, bins[2:])))


def test_class_splits_build_only_what_they_yield_in_the_unpruned_order(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return ClassSplit(*args)

    monkeypatch.setattr(descent, "ClassSplit", counted)
    for total in range(8):
        for beta in enumerate_partitions(total):
            for degrees in ((), (1,), (2,), (1, 2)):
                built.clear()
                got = list(class_splits(beta, degrees))
                assert len(built) == len(got), (beta, degrees)
                assert got == list(product_then_filter_splits(beta, degrees)), (beta, degrees)


def test_solver_roundtrip_and_rejection():
    dd = DescentDatum(3, ONE, 2, ONE, ())
    g = QuadrupleGamma(1, 0, 2, 1)
    feas = descent_feasibility(dd, g)
    assert feas is not None
    splits = enumerate_size_splits(dd, g, *feas)
    assert splits
    eta1m = SquareClass((1 + 0) % 2, 1)  # (r'_- + r'')/2 = 1
    for split in splits:
        sizes = assignment_sizes(g, split)
        assert solve_split_family(dd, g, sizes, eta1m, split.pairs) == split
        # wrong parity class: rejected
        assert solve_split_family(dd, g, sizes, ONE, split.pairs) is None
        # sizes off by one in any sector: inconsistent, selects no split
        for i in range(4):
            off = tuple(n + (j == i) for j, n in enumerate(sizes))
            assert solve_split_family(dd, g, off, eta1m, split.pairs) is None
    # moved within both sector sums: every size constraint holds, but n_{2,-}
    # falls below its base size and would leave N''_- = -1
    assert SizeSplit(2, 0, 1, 0, ()) in splits
    sizes = assignment_sizes(g, SizeSplit(2, 0, 1, 0, ()))
    moved = tuple(n + d for n, d in zip(sizes, (-1, 1, 1, -1)))
    assert solve_split_family(dd, g, moved, eta1m, ()) is None
    with pytest.raises(ValueError):
        solve_split_family(dd, QuadrupleGamma(1, -1, 2, 1), (3, 0, 2, 0), ONE, ())


def test_sector_sums_match_split_sizes():
    dd = DescentDatum(3, ONE, 2, ONE, ())
    g = QuadrupleGamma(1, 0, 2, 1)
    for split in enumerate_size_splits(dd, g, *descent_feasibility(dd, g)):
        sizes = assignment_sizes(g, split)
        assert [sector_size_sum(sizes, split, dd.blocks)] == split_sizes(1, 0, [(2, 1)])
