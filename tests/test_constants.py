import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import endosign
from endosign.constants import (QuadrupleGamma, branch_switch,
                                chain_sign_constants, closed_block_sign,
                                collapse_and_product_constants,
                                companion_sums_of_halves, companion_sums_of_pair, constprod_window,
                                even_case_transfer_constant, factorwise_block_sign,
                                factorwise_e_factor,
                                factorwise_gamma_factor, factorwise_transfer_check,
                                factorwise_u_factor, pair_power_constant, parity_of_halves,
                                parity_of_pair, r_plus_minus, size_forms_of_halves,
                                size_forms_of_pair, split_pair_values, split_sizes,
                                transfer_factor_sign, u_exponent, u_of_halves,
                                u_sign, alpha_constant, weil_ratio_sign)
from endosign.families import (GammaVector, LPair, SplitShape, enumerate_gamma, enumerate_L,
                               kappa_l2, kappa_u)
from endosign.localfield import ResidueParam, SquareClass, legendre

F5 = ResidueParam(5)
F7 = ResidueParam(7)
# m = sgn(-1) of each field
M5, M7 = 1, -1


def test_split_sum_identity_sample():
    ns = [(2, 3), (0, 0), (4, 1)]
    for rp in range(6):
        for rpp in range(-6, 7):
            sizes = split_sizes(rp, rpp, ns)
            r1p, r1pp, r2p, r2pp = split_pair_values(rp, rpp)
            assert len(sizes) == len(ns)
            for (Np, Npp), (n1, n2) in zip(ns, sizes):
                # the size of (r', r'', N', N'') is r'^2 + r' + r''^2 + N' + N''
                assert n1 + n2 == rp ** 2 + rp + rpp ** 2 + Np + Npp
                # companion membership: n_j is the size of (r'_j, r''_j, N_j, 0)
                assert n1 == r1p ** 2 + r1p + r1pp ** 2 + Np
                assert n2 == r2p ** 2 + r2p + r2pp ** 2 + Npp


def test_r_plus_minus():
    assert r_plus_minus(1, 1) == (2, 1)
    assert r_plus_minus(1, 0) == (1, 2)
    assert r_plus_minus(0, 0) == (1, 0)


def aux_sides(rp, rpp):
    """The (split pair side, (r', r'') side) of each of the four auxiliary identities."""
    halves = split_pair_values(rp, rpp)
    return [(parity_of_halves(halves), parity_of_pair(rpp)),
            (size_forms_of_halves(halves), size_forms_of_pair(rp, rpp)),
            (companion_sums_of_halves(halves), companion_sums_of_pair(rp, rpp)),
            ([u_of_halves(halves, m) for m in (1, -1)], [u_sign(rp, rpp, m) for m in (1, -1)])]


def test_aux_identities_worked_points():
    sides = aux_sides(1, 2)
    assert all(lhs == rhs for lhs, rhs in sides)
    companion_sums = sides[2][0]
    assert companion_sums[0] == 3  # = |r'_+ + r''| with r'_+ = 1
    assert companion_sums[3] == 0  # = |r'_- - r''| with r'_- = 2

    assert u_exponent(1, 0) == 0
    assert u_sign(1, 0, -1) == 1
    r1 = split_pair_values(1, 0)
    assert u_sign(r1[0], r1[1], -1) * u_sign(r1[2], r1[3], -1) == 1

    assert all(lhs == rhs for lhs, rhs in aux_sides(0, 0))


def test_alpha_constant():
    eta = SquareClass(0, 1)
    assert alpha_constant(0, 0, 1, 1, eta, M5) == 1
    assert alpha_constant(2, 0, 1, 1, eta, M7) == -1  # m^(1) * unit
    eta_odd = SquareClass(1, 1)
    assert alpha_constant(1, 1, -1, 1, eta_odd, M5) == -1
    with pytest.raises(ValueError):
        alpha_constant(1, 1, 1, 1, SquareClass(0, 1), M5)


def test_pair_power_constant():
    assert isinstance(pair_power_constant(0, 0, F5), Fraction)
    assert pair_power_constant(0, 0, F5) == 2
    assert pair_power_constant(2, 0, F5) == Fraction(1, 64)
    assert pair_power_constant(1, 1, F5) == Fraction(1, 2)
    with pytest.raises(ValueError):
        pair_power_constant(1, 0, F5)


def test_even_case_transfer_constant():
    eta = SquareClass(0, 1)
    one = SquareClass(0, 1)
    pi = SquareClass(1, 1)
    # (r', r'') = (2, 0): t1 = t2 = 1, classes of odd valuation; val(eta) even
    assert even_case_transfer_constant(pi, pi, 2, 0, 1, eta, M5) == 1
    # odd valuation of eta with eta2 unit sign -1
    eta_o = SquareClass(1, 1)
    eta2 = SquareClass(0, -1)
    eta1 = eta_o * eta2
    assert even_case_transfer_constant(eta1, eta2, 1, 1, 1, eta_o, M5) == -1
    # r' < r'' branch at q = 7 (m = -1): m^val(eta2) * sgn_cd(w'') * unit^(1+val)
    eta2b = SquareClass(1, -1)
    eta1b = eta_o * eta2b
    got = even_case_transfer_constant(eta1b, eta2b, 1, 3, -1, eta_o, M7)
    assert got == (-1) * (-1) * 1  # m * sgn_cd, exponent 1 + 1 even
    with pytest.raises(ValueError):
        even_case_transfer_constant(one, one, 1, 1, 1, eta_o, M5)


def test_weil_ratio_table():
    even_p = SquareClass(0, 1)
    even_m = SquareClass(0, -1)
    odd_p = SquareClass(1, 1)
    odd_m = SquareClass(1, -1)
    assert weil_ratio_sign(even_p, even_m, M5) == 1
    assert weil_ratio_sign(even_m, odd_p, M5) == -1  # unit of the first class
    assert weil_ratio_sign(odd_p, even_m, M5) == -1  # unit of the second class
    # both odd: sgn(-unit(eta)); at q = 7, m = -1
    assert weil_ratio_sign(odd_m, odd_p, M7) == (-1) * (-1) * 1


def test_transfer_factor_sign_degenerate():
    shape = SplitShape(1, 1)
    gamma = GammaVector((), (1,))
    pair = LPair((), ())
    eta = SquareClass(1, 1)
    # everything collapses to sgn_cd(w'')^val(eta), which the block sign carries
    for scd2 in (1, -1):
        assert transfer_factor_sign(shape, gamma, [pair], scd2, M5, F5) == [1]
        assert closed_block_sign(shape, 1, scd2, eta) == scd2


def test_transfer_factor_sign_pair_slot_factor():
    # single even pair slot at q = 5: difference sign legendre(1 - 4) = legendre(2)
    shape = SplitShape(2, 0)
    pair = enumerate_L(shape)[0]
    eta = SquareClass(0, 1)
    gamma = GammaVector((1, 4), ())
    got = transfer_factor_sign(shape, gamma, [pair], 1, M5, F5)
    # j/2-1 = 0 kills the product sign; remaining factors: legendre(1-4) *
    # top-product (empty)
    assert got == [-1]
    # t2 odd: the block sign is unit(eta) * sgn_cd(w'), here trivial
    assert closed_block_sign(shape, 1, 1, eta) == 1


def _slotwise_gamma_factor(shape, gamma, pair, scd1, scd2, eta, m, rp_field):
    # the per-factor route's (gamma, pairing) factor slot by slot, with the
    # signs of the slots above l read afresh at every l
    out = 1
    for j in range(1, shape.t2 + 1):
        l = 2 * j
        term = eta.unit_sign * scd1 * scd2
        term *= legendre(gamma.low[l - 2] - gamma.low[l - 1], rp_field)
        if shape.b_switch:
            term *= m * legendre(gamma.low[pair.l2[j - 1] - 1], rp_field)
        for v in gamma.low[l:]:
            term *= legendre(v, rp_field)
        for s in gamma.high:
            term *= s
        out *= term
    return out


@pytest.mark.parametrize("rp, rpp", [(4, 0), (5, 1), (0, 4), (1, 5), (2, 2), (3, 7)])
def test_rows_have_one_entry_per_pairing(rp, rpp):
    # Each route's block sign times its row is its (gamma, pairing) factor
    # for every pairing in the order given; on B = 0 shapes the row is one
    # value repeated.
    shape = SplitShape(rp, rpp)
    pairs = enumerate_L(shape)
    for field, m in ((F5, M5), (F7, M7)):
        for scd1, scd2, ue in itertools.product((1, -1), repeat=3):
            eta = SquareClass(rpp % 2, ue)
            for gamma in enumerate_gamma(shape, field, scd1 * scd2 * ue)[::7]:
                fw_sign = factorwise_block_sign(shape, scd1, scd2, eta)
                fw = factorwise_gamma_factor(shape, gamma, pairs, m, field)
                cl = transfer_factor_sign(shape, gamma, pairs, scd2, m, field)
                assert [fw_sign * x for x in fw] == [
                    _slotwise_gamma_factor(shape, gamma, pair, scd1, scd2, eta, m, field)
                    for pair in pairs]
                assert cl == [transfer_factor_sign(shape, gamma, [pair], scd2, m, field)[0]
                              for pair in pairs]
                assert factorwise_gamma_factor(shape, gamma, pairs[::-1], m, field) == fw[::-1]
                assert transfer_factor_sign(shape, gamma, pairs[::-1], scd2, m, field) == cl[::-1]
                if not shape.b_switch:
                    assert len(set(fw)) == len(set(cl)) == 1


def test_product_constant_values():
    one = SquareClass(0, 1)
    assert collapse_and_product_constants(0, 0, [(1, 1, one, one, one, 0)], F5) == [2]
    # t2 = 1: the collapse magnitude ((q-3)/4)^(-1) = 2 at q = 5 enters the product
    odd = SquareClass(1, 1)
    assert collapse_and_product_constants(2, 0, [(1, 1, one, odd, odd, 1)], F5) == [1]


def test_collapse_constants_are_those_of_each_point_alone():
    # a row's constants, in its points' order, are each point's own
    for field, _, rp, rpp, points in constprod_window((5, 7), 3):
        row = collapse_and_product_constants(rp, rpp, points, field)
        assert row == [collapse_and_product_constants(rp, rpp, [point], field)[0]
                       for point in points]
        assert collapse_and_product_constants(rp, rpp, points[::-1], field) == row[::-1]


def test_collapse_constants_check_the_class_parities_at_every_point():
    one, odd = SquareClass(0, 1), SquareClass(1, 1)
    good = (1, 1, one, odd, odd, 1)
    with pytest.raises(ValueError, match="class parities"):
        collapse_and_product_constants(2, 0, [good, (1, 1, one, one, one, 1)], F5)
    with pytest.raises(ValueError, match="beta"):
        collapse_and_product_constants(2, 0, [good, (1, 1, one, odd, odd, 2)], F5)


def test_product_identity_base_point():
    one = SquareClass(0, 1)
    [product] = collapse_and_product_constants(0, 0, [(1, 1, one, one, one, 0)], F5)
    lhs = product / 2  # family count is 1
    rhs = even_case_transfer_constant(one, one, 0, 0, 1, one, M5)
    assert lhs == rhs == 1


def test_branch_switch():
    assert branch_switch(2, 1) == 0
    assert branch_switch(2, 0) == 0
    assert branch_switch(1, 0) == 1
    assert branch_switch(2, -1) == 1


def test_chain_sign_constants_worked():
    base, _, _ = chain_sign_constants(1, 0, 1, 1, 0, 2, 0, M5)
    assert base == 1 and u_sign(1, 0, M5) == 1
    # branch r'' < -r': the endoscopic sign carries (-1)^(d r'') sgn_cd(w')
    _, endo, _ = chain_sign_constants(1, -2, -1, 1, 0, 0, 1, M5)
    assert endo == (-1) ** ((1 * -2) % 2) * (-1)


def test_chain_reduces_to_u():
    # the worked branch: for r'' <= r' the chain telescopes to (-1)^n U
    for m in (M5, M7):
        for rp in range(4):
            for rpp in range(-3, 4):
                for d2 in (0, 1):
                    for d1 in (0, 1):
                        base, endo, reduction = chain_sign_constants(
                            rp, rpp, -1, -1, d2, 1, d1 + d2, m)
                        chain = base * endo * reduction * (-1) ** ((d2 * rpp) % 2)
                        assert chain == -u_sign(rp, rpp, m)  # n = 1


def test_factorwise_check_degenerate():
    shape = SplitShape(1, 1)
    gamma = GammaVector((), (1,))
    pair = LPair((), ())
    e = (1,)
    eta = SquareClass(1, 1)
    groups = factorwise_transfer_check(shape, [pair], [gamma], M5, F5)
    # per scd2 one pair of rows holding the one vector, and one entry per pairing
    assert set(groups) == {1, -1}
    assert [list(by_rows.values()) for by_rows in groups.values()] == [[[0]], [[0]]]
    [((fw,), (cl,))] = groups[-1]
    fw *= factorwise_block_sign(shape, 1, -1, eta)
    cl *= closed_block_sign(shape, 1, -1, eta)
    # the signed entries differ; the u-parts (-1)^(val + u_1) and kappa_u make
    # up for it at every point
    assert (fw, cl) == (1, -1)
    for u, expected in (((1,), 1), ((0,), -1)):
        assert fw * factorwise_e_factor(e, pair) * factorwise_u_factor(u, (1,), eta) == expected
        assert cl * kappa_l2(e, pair) * kappa_u(u, (1,)) == expected


def test_quadruple_validation():
    with pytest.raises(ValueError):
        QuadrupleGamma(1, 0, -1, 0)


def code_entered_by(call) -> set:
    """The code objects that call() enters, recorded by a sys.setprofile hook."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def entered_functions(call) -> set[str]:
    """Qualified names of the package functions that call() enters."""
    package = Path(endosign.__file__).resolve().parent
    return {code.co_qualname for code in code_entered_by(call)
            if Path(code.co_filename).resolve().parent == package}
