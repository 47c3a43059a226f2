"""The planted-fault catalogue: every sweep's evidence that it is not vacuous.

A sweep is worth only what its planted wrong formulas show, so each entry
of FAULTS plants one wrong formula and names the sweeps it must fail.  A
Fault holds a name, a plant and its runs.  The plant returns the
(module, name, replacement) triples to patch; it is called afresh for each
run, so a replacement that counts its calls starts at zero.  A Run holds
the test id it is checked under, the suite and bounds, and the exact
expectation (see Run).  test_suites.py checks every run with one check.

A new suite adds its faults here: one entry per wrong formula, one run per
(suite, bounds) it must fail.
"""

import itertools
import json
from fractions import Fraction
from typing import Callable, NamedTuple

from endosign import constants, descent, suites, weyl
from endosign import families as fam
from endosign import params as par
from endosign.localfield import ResidueParam, SquareClass, legendre, sgn_minus_one
from endosign.partitions import Partition
from endosign.weyl import sgn_cd

from test_families import scatter


def identity_of(record):
    return record["identity"]


def identity_and_shape(record):
    return record["identity"], record["rp"], record["rpp"]


class Run(NamedTuple):
    """One sweep that a fault must fail, and exactly how.

    The report checks points; counts is the Counter of its failure records
    keyed by by (their identity unless given otherwise).  Where given:
    reference is a pair (view, expected) with view(failures) == expected(),
    expected evaluated under the plant; relation holds on every record;
    notes are the report's notes; cli asks that `endosign verify` at the
    bounds exits 1 and prints the same failures; aliases are further test
    ids that check the same run, which sweeps once for all of them.
    """
    test: str
    suite: str
    bounds: dict
    points: int
    counts: dict
    by: Callable = identity_of
    reference: tuple = None
    relation: Callable = None
    notes: list = None
    cli: bool = False
    aliases: tuple = ()


class Fault(NamedTuple):
    name: str
    plant: Callable
    runs: tuple


def patch(module, name, make):
    """A plant that replaces module.name by make(original)."""
    return lambda: [(module, name, make(getattr(module, name)))]


def negated_value(value):
    # a route's row is a list with one entry per pairing, the closed route's
    # rows a dict of one row per scd2; its e- and u-parts are ints
    if isinstance(value, dict):
        return {scd2: negated_value(row) for scd2, row in value.items()}
    return [-x for x in value] if isinstance(value, list) else -value


def negated(original):
    return lambda *args: negated_value(original(*args))


def scaled_where(when, factor=-1):
    return lambda original: lambda *args: \
        factor * original(*args) if when(*args) else original(*args)


def scaled_row_where(when, factor=-1):
    # scales the entries of a route's row whose own pairing satisfies when;
    # the closed route returns one row per scd2, and each is scaled alike
    def make(original):
        def scaled(shape, gamma, pairs, row, *rest):
            return [factor * x if when(shape, gamma, pair, *rest) else x
                    for pair, x in zip(pairs, row)]

        def faulty(shape, gamma, pairs, *rest):
            rows = original(shape, gamma, pairs, *rest)
            if isinstance(rows, dict):
                return {scd2: scaled(shape, gamma, pairs, row, *rest)
                        for scd2, row in rows.items()}
            return scaled(shape, gamma, pairs, rows, *rest)

        return faulty

    return make


def negated_top_signs(original):
    return lambda shape, gamma, *rest: original(
        shape, fam.GammaVector(gamma.low, tuple(-s for s in gamma.high)), *rest)


def mirrored_pairings(original):
    # for gamma of even residue sum, the per-factor route reads each
    # pairing's factor off the pairing at the mirrored position of
    # enumerate_L: the row keeps its values, but they move to other pairings
    def faulty(shape, gamma, pairs, *rest):
        if sum(gamma.low) % 2:
            return original(shape, gamma, pairs, *rest)
        every = fam.enumerate_L(shape)
        mirror = {pair.l2: every[-1 - i] for i, pair in enumerate(every)}
        return original(shape, gamma, [mirror[pair.l2] for pair in pairs], *rest)

    return faulty


def negated_m(original):
    # both routes' rows take (..., m, rp_field) last
    def faulty(*args):
        *head, m, rp_field = args
        return original(*head, -m, rp_field)

    return faulty


def flipped_eta_of_l2(original):
    # keyed on the L2 component's first residue, the class at scd2 = -1 only
    def flipped(comp2, shape, rp_field):
        classes = original(comp2, shape, rp_field)
        if comp2[:1] == (2,):
            eta2 = classes[-1]
            return {**classes, -1: SquareClass(eta2.val_parity, -eta2.unit_sign)}
        return classes

    return flipped


def one_class_eta_of_l2(original):
    # a caller that reads the scd2 = +1 class for both class signs
    def one_class(comp2, shape, rp_field):
        classes = original(comp2, shape, rp_field)
        return {scd2: classes[1] for scd2 in classes}

    return one_class


def misread_split(original):
    # gamma2 takes its first slot's L1 residue in place of its L2 one when
    # gamma's first residue is 1 mod 3
    def misread(gamma, pair):
        comp1, comp2 = original(gamma, pair)
        if gamma.low[:1] and gamma.low[0] % 3 == 1:
            return comp1, comp1[:1] + comp2[1:]
        return comp1, comp2

    return misread


def all_equal_profile(shape, gamma, pair, m, rp_field):
    # m = +1 and the first pair slot (a, b), with a = 1 or 2, has
    # chi(a) = chi(b) = chi(a - b): at q = 13 a = 1 gives the profile
    # (1, 1, 1) and a = 2 the profile (-1, -1, -1)
    if m != 1 or pair.l2[:1] != (1,) or gamma.low[:1] not in ((1,), (2,)):
        return False
    a, b = gamma.low[:2]
    return legendre(a, rp_field) == legendre(b, rp_field) == legendre(a - b, rp_field)


def repeated_first_entry(original):
    # gamma's first entry also lands in its second place, so the gather is not
    # injective: joined pairs that differ only there reassemble to one tuple
    def repeating(pair, shape):
        gather = original(pair, shape)

        def repeated(joined):
            flat = gather(joined)
            return flat[:1] + flat[:1] + flat[2:] if len(flat) >= 2 else flat

        return repeated

    return repeating


def dropped_minus_bucket(original):
    # every table with no top signs whose halves include the field's first
    # side-2 slot choice loses its -1 bucket: every side-2 table, and at
    # r = 0 side 1's too
    def dropped(halves, r, rp_field):
        table = original(halves, r, rp_field)
        if r == 0 and fam._slot_choices(rp_field)[0][1] in halves:
            return {1: table[1], -1: []}
        return table

    return dropped


def doubled_fiber_size_prediction(original):
    def doubled(gamma, shape, rp_field):
        predicted = original(gamma, shape, rp_field)
        if gamma.low[:1] == (1,) and gamma.high[:1] != (-1,):
            return predicted * 2
        return predicted

    return doubled


def pair_dependent_slotwise_count(original):
    def off_by_one(gamma, pair, counts):
        observed = original(gamma, pair, counts)
        if pair.l1[:1] == (2,) and gamma.low[:1] == (1,):
            return observed + 1
        return observed

    return off_by_one


def halved_products(at_beta):
    """The row function's product constants, halved at the points whose beta is in at_beta."""
    return patch(constants, "collapse_and_product_constants", lambda original: (
        lambda rp, rpp, points, rp_field: [
            product / 2 if beta in at_beta else product
            for product, (*_, beta) in zip(original(rp, rpp, points, rp_field), points)]))


def alpha_negated_at_scd1_minus_one():
    # Each point makes three alpha_constant calls, alpha(r', r'') first; the
    # fault negates that one where sgn_cd(w') = -1.  It counts the calls
    # because their arguments cannot single it out: at r' = r'' it can equal
    # the t1 call, and negating both where their scd1 is -1 would cancel.
    # A row function that evaluated the sign at the row's first point, where
    # both class signs are 1, and reused it would miss the fault.
    original, calls = constants.alpha_constant, itertools.count()

    def faulty(rp, rpp, scd1, *rest):
        value = original(rp, rpp, scd1, *rest)
        return -value if next(calls) % 3 == 0 and scd1 == -1 else value

    return [(constants, "alpha_constant", faulty)]


def half_negated_at_class_sign_minus_one():
    # The fault negates the halves' constants at class sign -1 and leaves
    # sign_chain's own call exact, so only the collapse moves.  A row function
    # that evaluated the halves at the row's first point, where both class
    # signs are 1, and reused them would miss it.
    original_constants, original_chain = constants.chain_sign_constants, constants.sign_chain

    def faulty(rp, rpp, scd1, *rest):
        base, endo, reduction = original_constants(rp, rpp, scd1, *rest)
        return -base if scd1 == -1 else base, endo, reduction

    def exact_chain(*args):
        constants.chain_sign_constants = original_constants
        try:
            return original_chain(*args)
        finally:
            constants.chain_sign_constants = faulty

    return [(constants, "chain_sign_constants", faulty), (constants, "sign_chain", exact_chain)]


def split_size_off_by_one():
    # the suites module binds split_sizes for descent, the constants module
    # for split; one wrong formula reaches both
    def make(original):
        return lambda rp, rpp, ns: [(n1 + 1, n2) for n1, n2 in original(rp, rpp, ns)]

    return [(module, "split_sizes", make(module.split_sizes)) for module in (suites, constants)]


def shifted_split_pair(original):
    # r''_1 + 2 breaks U = U1 U2, which aux alone sweeps, at r' <= 2, |r''| <= 2
    def shifted(rp, rpp):
        r1p, r1pp, r2p, r2pp = original(rp, rpp)
        return r1p, r1pp + 2, r2p, r2pp

    return shifted


def split_size_shifted_at_the_last_point(original):
    # n1 + 1 only at N' = N'' = 1, the last point of each row at nmax 1: a
    # row function that evaluated the row's first point and reused it would miss it
    return lambda rp, rpp, ns: [(n1 + ((Np, Npp) == (1, 1)), n2)
                                for (Np, Npp), (n1, n2) in zip(ns, original(rp, rpp, ns))]


def family_sides(family, shape, field):
    """A family's side-1 and side-2 selections, as reassembly_tallies builds them."""
    return (fam.family_selections([g1 for g1, _ in family], shape.r, field),
            fam.family_selections([g2 for _, g2 in family], 0, field))


# ---- references: the failure lists, derived point by point

def per_point_transfer_failures(q):
    """The transfer sweep's failures at rrmax 2, with both routes evaluated in full at every point.

    No table, no grid, no memo and no row of more than one pairing: each
    point multiplies the per-factor route's block sign, gamma, e- and
    u-factors, and the closed route's block sign, transfer_factor_sign
    (with its gamma_L_split and eta_of_L2, so gamma is split afresh at
    every point), kappa_l2 and kappa_u, each route's gamma factor taken
    from a one-pairing row, the closed one at the point's scd2.  At
    rrmax 2 every R - r takes all of r = 0, 1, 2.
    """
    field = ResidueParam(q)
    m = sgn_minus_one(field)
    betas = (Partition(), Partition([1]))
    failures = []
    for rp, rpp in [(0, 0), (1, 1), (2, 2), (2, 0), (0, 2), (3, 1), (1, 3), (4, 2), (2, 4)]:
        shape = fam.SplitShape(rp, rpp)
        for beta1, beta2, ue in itertools.product(betas, betas, (1, -1)):
            scd1, scd2 = sgn_cd((Partition(), beta1)), sgn_cd((Partition(), beta2))
            t1, t = beta1.length(), beta1.length() + beta2.length()
            k_second = tuple(range(t1 + 1, t + 1))
            eta = SquareClass(rpp % 2, ue)
            for gamma, pair, e, u in itertools.product(
                    fam.enumerate_gamma(shape, field, scd1 * scd2 * ue), fam.enumerate_L(shape),
                    fam.enumerate_e(shape), itertools.product((0, 1), repeat=t)):
                fw = (constants.factorwise_block_sign(shape, scd1, scd2, eta)
                      * constants.factorwise_gamma_factor(shape, gamma, [pair], m, field)[0]
                      * constants.factorwise_e_factor(e, pair)
                      * constants.factorwise_u_factor(u, k_second, eta))
                cl = (constants.closed_block_sign(shape, scd1, scd2, eta)
                      * constants.transfer_factor_sign(shape, gamma, [pair], m, field)[scd2][0]
                      * fam.kappa_l2(e, pair) * fam.kappa_u(u, k_second))
                if fw != cl:
                    failures.append({"q": q, "rp": rp, "rpp": rpp, "scd1": scd1, "scd2": scd2,
                                     "eta": eta.name(), "gamma": gamma.to_json(),
                                     "e": list(e), "u": list(u), "pair": pair.to_json(),
                                     "identity": "transfer", "lhs": fw, "rhs": cl})
    return failures


def per_point_counting_failures(q, t2max):
    """The counting sweep's image and fiber failures, one tally per point.

    Every sign choice (s1, s2, ue, ue2) and pairing builds its own tally,
    one scatter per preimage keyed by gamma's flat tuple, and its own image,
    splitting each vector afresh, in the order in which the sweep reports
    them.
    """
    field = ResidueParam(q)
    choices = fam._slot_choices(field)
    pair_counts = fam.slot_pair_counts(choices)
    failures = []
    for t2, _, fiber_shapes in suites.counting_window(field, t2max):
        for shape, *_ in fiber_shapes:
            rp, rpp = shape.rp, shape.rpp
            tables = [family_sides(family, shape, field)
                      for family in fam.enumerate_transversal_families(shape, choices)]
            for s1, s2, ue, ue2 in itertools.product((1, -1), repeat=4):
                eta, eta2 = SquareClass(rpp % 2, ue), SquareClass(t2 % 2, ue2)
                eta1 = eta * eta2
                gammas = fam.enumerate_gamma(shape, field, s1 * s2 * ue)
                for pair in fam.enumerate_L(shape):
                    image = [g for g in gammas if fam.eta_of_L2(
                        fam.gamma_L_split(g, pair)[1], shape, field)[s2] == eta2]
                    tally = {}
                    for side1, side2 in tables:
                        for c1 in side1[s1 * eta1.unit_sign]:
                            for c2 in side2[s2 * eta2.unit_sign]:
                                flat = scatter(c1, c2, pair, shape)
                                tally[flat] = tally.get(flat, 0) + 1
                    expected = {g.low + g.high for g in image}
                    if tally.keys() != expected:
                        failures.append({"q": q, "rp": rp, "rpp": rpp, "scd1": s1, "scd2": s2,
                                         "eta": eta.name(), "eta2": eta2.name(),
                                         "pair": pair.to_json(), "identity": "image",
                                         "extra": len(tally.keys() - expected),
                                         "missing": len(expected - tally.keys())})
                        continue
                    for g in image:
                        slotwise = fam.fiber_count_check(g, pair, pair_counts)
                        predicted = fam.fiber_size_prediction(g, shape, field)
                        observed = tally[g.low + g.high]
                        if slotwise != observed or observed != predicted:
                            failures.append({"q": q, "rp": rp, "rpp": rpp, "scd1": s1,
                                             "scd2": s2, "eta": eta.name(),
                                             "eta2": eta2.name(), "pair": pair.to_json(),
                                             "gamma": g.to_json(),
                                             "identity": "fiber", "observed": observed,
                                             "slotwise": slotwise,
                                             "predicted": str(predicted)})
    return failures


def fields(*keys):
    """The view of each record's keys, in order."""
    return lambda failures: [tuple(f[key] for key in keys) for f in failures]


def constprod_points(q, rmax, keep):
    """(q, r', r'', scd1, scd2, eta, eta2, beta) of each constprod_window point that keep admits.

    keep reads the point's (r', r'', scd1, beta).
    """
    return fields("q", "rp", "rpp", "scd1", "scd2", "eta", "eta2", "beta"), lambda: [
        (field.q, rp, rpp, s1, s2, eta.name(), eta2.name(), beta)
        for field, _, rp, rpp, points in constants.constprod_window(q, rmax)
        for s1, s2, eta, _, eta2, beta in points if keep(rp, rpp, s1, beta)]


def faulty_side_two_half(q, t2max):
    """The points where a table that dropped_minus_bucket empties is read at -1.

    A point's tally joins each family's side-1 bucket at tau1 with its
    side-2 bucket at tau2, so the fault loses preimages exactly there.
    """
    def expected():
        field = ResidueParam(q)
        choices = fam._slot_choices(field)
        half = choices[0][1]
        out, points = set(), 0
        for _, _, fiber_shapes in suites.counting_window(field, t2max):
            for shape, pairs, _, shape_points in fiber_shapes:
                families = list(fam.enumerate_transversal_families(shape, choices))
                g1_hit, g2_hit = (any(half in (pair[k] for pair in family)
                                      for family in families) for k in (0, 1))
                hit = (g1_hit and shape.r == 0, g2_hit)
                for s1, s2, eta, eta2, pi, taus, _, _ in shape_points:
                    points += 1
                    if any(h and tau == -1 for h, tau in zip(hit, taus)):
                        out.add((shape.rp, shape.rpp, s1, s2, eta.name(), eta2.name(),
                                 json.dumps(pairs[pi].to_json())))
        assert 0 < len(out) < points
        return out

    return (lambda failures: {(f["rp"], f["rpp"], f["scd1"], f["scd2"], f["eta"], f["eta2"],
                               json.dumps(f["pair"]))
                              for f in failures if f["identity"] in ("image", "fiber")},
            expected)


SYMMETRIC_CLASS_COUNTS = [1, 1, 2, 3, 5, 7, 11]  # classes of S_0, ..., S_6


def each_off_by_its_class_count(f):
    # each class size off by one, each total by its number of classes
    if "cls" not in f:
        return Fraction(f["lhs"]) - f["rhs"] == SYMMETRIC_CLASS_COUNTS[f["d"]]
    return Fraction(f["lhs"]) == f["rhs"] + 1 and list(f["cls"]) == ["pi"] \
        and sum(f["cls"]["pi"]) == f["d"]


def _fault(name, plant, *runs):
    return name, Fault(name, plant, runs)


def _transfer_q5(test, counts, points=35613, **expectation):
    return Run(test, "transfer", {"q": (5,), "rrmax": 2}, points, counts, **expectation)


def _partial_transfer(name, counts, **expectation):
    # a fault on some of the points at q = 5, rrmax 2, held to the per-point reference
    return _transfer_q5(f"test_transfer_sweep_fails_where_the_per_point_check_fails[{name}]",
                        counts, reference=(list, lambda: per_point_transfer_failures(5)),
                        **expectation)


def _counting(test, q, counts, **expectation):
    return Run(test, "counting", {"q": (q,), "t2max": 1}, {5: 132, 7: 82}[q], counts,
               **expectation)


def _per_point_counting(name, q, counts):
    # the image and fiber failures, held to the per-point reference at t2max 1
    return _counting(f"test_counting_sweep_fails_where_the_per_point_check_fails[{name}-{q}]",
                     q, counts, reference=(
                         lambda failures: [f for f in failures
                                           if f["identity"] in ("image", "fiber")],
                         lambda: per_point_counting_failures(q, 1)))


ALTERNATE_PASSES = ["failures re-evaluated under the alternate two-power reading: pass"]
ALTERNATE_FAILS = ["failures re-evaluated under the alternate two-power reading: fail"]


def at_scd1_minus_one_on_odd_t2(f):
    return f["scd1"] == -1 and abs(f["rp"] - f["rpp"]) % 4 == 2


def on_b_one_shapes_with_odd_t2(*counts):
    """The failures per shape on the r' < r'' shapes with t2 = 1, (0, 2), (1, 3) and (2, 4)."""
    return {("transfer", rp, rp + 2): count for rp, count in enumerate(counts)}


# Faults on a subset of the transfer points, on either side of the
# identity.  A fault on a route's row scales the entries whose own (gamma,
# pairing) satisfies its predicate.  The faults on the e- and u-parts reach
# a row through its route's grid only, and those on the block signs through
# a whole block: the per-factor one where sgn_cd(w'') = unit(eta) = -1, the
# closed one where sgn_cd(w') = -1 on odd t2.  The doubled closed-form sign
# gives rows whose entries are not +-1.  The pairing-position fault flips
# per-factor entries by where their pairing sits in the row, and the
# mirrored pairings move a row's values to other pairings without changing
# them.  The negated top signs reach the per-factor route alone, and the
# flipped eta[L2, gamma], the class read at scd2 = +1 for both class signs
# and the misread split the closed route on B = 1 shapes alone.  A route
# given -m for m = sgn(-1) changes sign where it reads m an odd number of
# times: on the B = 1 shapes with odd t2; (0, 4) and (1, 5), with t2 = 2,
# pass.
#
# In counting, every tally is shared by sign choices with both signs of
# sgn_cd(w2), so the eta_of_L2 fault passes at the first point that builds
# a tally and fails at others that read it.  The fiber_count_check fault
# depends on the pairing, so a slotwise count shared across pairings would
# misplace it.
FAULTS = dict([
    _fault("transfer_factor_sign_negated", patch(constants, "transfer_factor_sign", negated),
           Run("test_transfer_fails_on_a_flipped_transfer_factor_sign", "transfer",
               {"q": (5,), "rrmax": 0}, 189, {"transfer": 189})),
    *(_fault(f"{factor}_negated", patch(constants, factor, negated),
             _transfer_q5(f"test_transfer_fails_on_a_negated_factorwise_factor[{factor}]",
                          {"transfer": 35613}))
      for factor in ("factorwise_gamma_factor", "factorwise_e_factor", "factorwise_u_factor")),
    _fault("transfer_factor_sign", patch(constants, "transfer_factor_sign", scaled_row_where(
        lambda shape, gamma, *rest: sum(gamma.low) % 3 == 1)),
        _partial_transfer("transfer_factor_sign", {"transfer": 11808})),
    _fault("transfer_factor_sign_doubled", patch(constants, "transfer_factor_sign",
                                                 scaled_row_where(
        lambda shape, gamma, *rest: sum(gamma.low) % 3 == 2, factor=2)),
        _partial_transfer("transfer_factor_sign_doubled", {"transfer": 11808})),
    _fault("factorwise_gamma_factor", patch(constants, "factorwise_gamma_factor",
                                            scaled_row_where(
        lambda shape, gamma, pair, *rest: pair.l2[:1] == (1,) and gamma.high[:1] == (-1,))),
        _partial_transfer("factorwise_gamma_factor", {"transfer": 8640})),
    _fault("factorwise_gamma_factor_pair_position", patch(
        constants, "factorwise_gamma_factor", scaled_row_where(
            lambda shape, gamma, pair, *rest: pair.l2[:1] == (1,) and sum(gamma.low) % 2 == 0)),
        _partial_transfer("factorwise_gamma_factor_pair_position", {"transfer": 6048})),
    _fault("factorwise_gamma_factor_mirrored_pairings",
           patch(constants, "factorwise_gamma_factor", mirrored_pairings),
           _partial_transfer("factorwise_gamma_factor_mirrored_pairings", {"transfer": 5760})),
    _fault("factorwise_gamma_factor_top_signs",
           patch(constants, "factorwise_gamma_factor", negated_top_signs),
           _partial_transfer("factorwise_gamma_factor_top_signs", {"transfer": 6912})),
    *(_fault(f"{name}_negated_m", patch(constants, name, negated_m),
             _partial_transfer(f"{name}_negated_m", {"transfer": 17712}),
             Run(f"test_transfer_negated_m_fails_on_b_one_shapes_with_odd_t2[{name}_negated_m]",
                 "transfer", {"q": (5,), "rrmax": 4}, 782109,
                 on_b_one_shapes_with_odd_t2(432, 3456, 13824), by=identity_and_shape))
      for name in ("factorwise_gamma_factor", "transfer_factor_sign")),
    _fault("factorwise_block_sign", patch(constants, "factorwise_block_sign", scaled_where(
        lambda shape, scd1, scd2, eta: scd2 == -1 and eta.unit_sign == -1)),
        _partial_transfer("factorwise_block_sign", {"transfer": 11902})),
    # constprod's product constant takes d's block sign from closed_block_sign,
    # so a fault in its one definition fails both identities that read it
    _fault("closed_block_sign", patch(constants, "closed_block_sign", scaled_where(
        lambda shape, scd1, scd2, eta: scd1 == -1 and shape.t2 % 2 == 1)),
        _partial_transfer("closed_block_sign", {"transfer": 23616},
                          relation=at_scd1_minus_one_on_odd_t2),
        Run("test_a_wrong_closed_block_sign_fails_constprod_and_transfer", "constprod",
            {"q": (5,), "rmax": 2}, 95, {"constprod": 16}, relation=at_scd1_minus_one_on_odd_t2)),
    _fault("factorwise_e_factor", patch(constants, "factorwise_e_factor", scaled_where(
        lambda e, pair: e[-1:] == (1,))),
        _partial_transfer("factorwise_e_factor", {"transfer": 17802})),
    _fault("factorwise_u_factor", patch(constants, "factorwise_u_factor", scaled_where(
        lambda u, k_second, eta: sum(u) != 1)),
        _partial_transfer("factorwise_u_factor", {"transfer": 19785})),
    _fault("kappa_l2", patch(fam, "kappa_l2", scaled_where(
        lambda e, pair: e[:1] == (1,) and len(pair.l2) == 1)),
        _partial_transfer("kappa_l2", {"transfer": 17712})),
    _fault("kappa_u", patch(fam, "kappa_u", scaled_where(lambda u, k_second: u[:1] == (0,))),
           _partial_transfer("kappa_u", {"transfer": 15828})),
    _fault("eta_of_L2", patch(fam, "eta_of_L2", flipped_eta_of_l2),
           _partial_transfer("eta_of_L2", on_b_one_shapes_with_odd_t2(72, 576, 2304),
                             by=identity_and_shape,
                             aliases=("test_transfer_eta_of_l2_fault_fails_on_b_one_shapes_only",)),
           _per_point_counting("eta_of_L2", 5, {"image": 48}),
           _per_point_counting("eta_of_L2", 7, {"image": 24})),
    _fault("eta_of_L2_one_class", patch(fam, "eta_of_L2", one_class_eta_of_l2),
           _partial_transfer("eta_of_L2_one_class", on_b_one_shapes_with_odd_t2(288, 2304, 9216),
                             by=identity_and_shape),
           _per_point_counting("eta_of_L2_one_class", 5, {"image": 60}),
           _per_point_counting("eta_of_L2_one_class", 7, {"image": 36})),
    _fault("gamma_L_split", patch(fam, "gamma_L_split", misread_split),
           _partial_transfer("gamma_L_split", on_b_one_shapes_with_odd_t2(144, 1152, 4608),
                             by=identity_and_shape, aliases=(
                                 "test_transfer_split_fault_fails_where_the_per_point_check_fails"
                                 "_on_b_one_shapes[5]",)),
           Run("test_transfer_split_fault_fails_where_the_per_point_check_fails"
               "_on_b_one_shapes[7]",
               "transfer", {"q": (7,), "rrmax": 2}, 88749,
               on_b_one_shapes_with_odd_t2(216, 1728, 6912), by=identity_and_shape,
               reference=(list, lambda: per_point_transfer_failures(7))),
           _per_point_counting("gamma_L_split", 5, {"image": 80, "worked_fibers": 1}),
           _per_point_counting("gamma_L_split", 7, {"image": 40})),
    # at m = +1, q = 5 never puts an all-equal profile on a pair slot and
    # q = 13 does
    _fault("transfer_factor_sign_all_equal_profile", patch(
        constants, "transfer_factor_sign", scaled_row_where(all_equal_profile)),
        Run("test_transfer_under_an_all_equal_profile_fault_at_m_plus_one[5,7-4]",
            "transfer", {"q": (5, 7), "rrmax": 4}, 1389258, {}),
        Run("test_transfer_under_an_all_equal_profile_fault_at_m_plus_one[13-2]",
            "transfer", {"q": (13,), "rrmax": 2}, 389853, {"transfer": 6048},
            relation=lambda f: f["lhs"] == -f["rhs"])),
    _fault("split_size_off_by_one", split_size_off_by_one,
           Run("test_descent_fails_on_an_off_by_one_split_size", "descent", {"beta_max": 0},
               2986, {"sector_sum": 1165}),
           Run("test_split_fails_on_an_off_by_one_split_size", "split", {"rmax": 2, "nmax": 1},
               60, {"sum": 60, "swap": 60},
               relation=lambda f: f["identity"] != "sum" or f["lhs"] == f["rhs"] + 1)),
    _fault("no_split_selected",
           patch(descent, "solve_split_family", lambda _: lambda *args: None),
           Run("test_descent_fails_on_a_solver_that_selects_no_split", "descent",
               {"beta_max": 8}, 6765, {"unique_split": 1165})),
    # n_{1,+} one too large at every split: its sector sums miss split_sizes and
    # the solver selects no split, while the scan, whose sizes all moved alike,
    # still matches.  Both identities read the sizes that the sweep built.
    _fault("assignment_size_off_by_one", patch(descent, "assignment_sizes", lambda original: (
        lambda g, split: (lambda n1_plus, *rest: (n1_plus + 1, *rest))(*original(g, split)))),
        Run("test_descent_fails_on_an_off_by_one_assignment_size", "descent", {"beta_max": 0},
            2986, {"sector_sum": 1165, "unique_split": 1165}, reference=(list, lambda: [
                {"g": g.to_json(), "split": split.to_json(), "identity": identity}
                for g, dd, N_plus, N_minus in suites.descent_window()
                for split in descent.enumerate_size_splits(dd, g, N_plus, N_minus)
                for identity in ("sector_sum", "unique_split")]))),
    # Each split with N'_- >= 1 gains a copy with one unit moved to N'_+, which
    # keeps both support sums but breaks N'_+ + N''_+ = N_+.
    _fault("shifted_plus_size", patch(descent, "enumerate_size_splits", lambda original: (
        lambda dd, g, N_plus, N_minus: [
            copy for split in original(dd, g, N_plus, N_minus)
            for copy in ([split, split._replace(Np_plus=split.Np_plus + 1,
                                                Np_minus=split.Np_minus - 1)]
                         if split.Np_minus >= 1 else [split])])),
        Run("test_descent_fails_on_size_splits_with_a_shifted_plus_size", "descent",
            {"beta_max": 2}, 3892, {"unique_split": 434})),
    _fault("class_split_drops_a_part", patch(descent, "class_splits", lambda original: (
        lambda beta, degrees: (split._replace(beta_plus=Partition(split.beta_plus.parts[1:]))
                               for split in original(beta, degrees)))),
        Run("test_descent_fails_on_class_splits_that_drop_a_part", "descent", {"beta_max": 8},
            6765, {"class_sign": 2945})),
    # a zero family count makes every left side 0: each point fails as a record
    _fault("zero_family_count", patch(fam, "transversal_family_count_formula",
                                      lambda _: lambda shape, field: Fraction(0)),
           Run("test_constprod_fails_on_a_zero_left_side", "constprod", {"q": (5,), "rmax": 0},
               23, {"constprod": 23}, relation=lambda f: f["lhs"] == "0",
               notes=ALTERNATE_FAILS, cli=True)),
    # every product halved: each point fails by exactly half, so the
    # alternate reading, which doubles the left side, holds
    _fault("halved_products", halved_products(at_beta=(0, 1)),
           Run("test_constprod_fails_on_the_swapped_two_power_reading", "constprod",
               {"q": (5, 7), "rmax": 3}, 294, {"constprod": 294}, notes=ALTERNATE_PASSES)),
    _fault("pair_power_constant_tripled", patch(
        constants, "pair_power_constant", lambda original: lambda *args: original(*args) * 3),
        Run("test_constprod_fails_on_a_pair_power_constant_off_by_three", "constprod",
            {"q": (5,), "rmax": 2}, 95, {"constprod": 95},
            relation=lambda f: f["lhs"] == str(3 * f["rhs"]), notes=ALTERNATE_FAILS)),
    _fault("even_case_transfer_constant_negated",
           patch(constants, "even_case_transfer_constant", negated),
           Run("test_constprod_alternate_reading_can_fail_too", "constprod",
               {"q": (5,), "rmax": 1}, 43, {"constprod": 43}, notes=ALTERNATE_FAILS)),
    _fault("alpha_negated_at_scd1_minus_one", alpha_negated_at_scd1_minus_one,
           Run("test_constprod_fails_where_the_orientation_sign_reads_scd1_minus_one",
               "constprod", {"q": (5, 7), "rmax": 3}, 294, {"constprod": 144},
               reference=constprod_points((5, 7), 3, lambda rp, rpp, s1, beta: s1 == -1),
               relation=lambda f: f["lhs"] == str(-f["rhs"]))),
    # tripled at (r', r'') = (3, 1) only: exactly that row's points fail, at every q
    _fault("pair_power_constant_tripled_at_one_row", patch(
        constants, "pair_power_constant", lambda original: lambda rp, rpp, rp_field: (
            original(rp, rpp, rp_field) * (3 if (rp, rpp) == (3, 1) else 1))),
        Run("test_constprod_fails_on_a_pair_power_constant_wrong_at_one_row", "constprod",
            {"q": (5, 7, 13), "rmax": 3}, 441,
            {("constprod", 5): 16, ("constprod", 7): 16, ("constprod", 13): 16},
            by=lambda f: (f["identity"], f["q"]),
            reference=constprod_points((5, 7, 13), 3,
                                       lambda rp, rpp, s1, beta: (rp, rpp) == (3, 1)),
            relation=lambda f: f["lhs"] == str(3 * f["rhs"]))),
    # A row function that took the product's magnitude at the row's first
    # point, where beta = 1, and reused it at beta = 0 would double those
    # products, and the fault would hide that.  Every record holds when
    # doubled, but doubled, each passing beta = 1 point fails.
    _fault("halved_products_at_beta_zero", halved_products(at_beta=(0,)),
           Run("test_constprod_fails_on_a_product_constant_halved_at_beta_zero", "constprod",
               {"q": (5, 7), "rmax": 3}, 294, {"constprod": 38},
               reference=constprod_points((5, 7), 3, lambda rp, rpp, s1, beta: beta == 0),
               relation=lambda f: Fraction(f["lhs"]) == Fraction(f["rhs"], 2),
               notes=ALTERNATE_FAILS)),
    _fault("kappa_zero_negated", patch(fam, "kappa_zero", negated),
           Run("test_kappasum_fails_on_a_negated_kappa_zero", "kappasum", {"max_rr": 2}, 35,
               {"kappasum": 23}, relation=lambda f: f["lhs"] == -f["rhs"] != 0)),
    # the law counts the pairings by their closed form, not by the list the
    # sum runs over: every point of the distinguished subgroup fails, with
    # the sum doubled
    _fault("pairings_listed_twice", patch(fam, "enumerate_L", lambda original: (
        lambda shape: original(shape) * 2)),
        Run("test_kappasum_fails_on_pairings_listed_twice", "kappasum", {}, 595,
            {"kappasum": 119}, relation=lambda f: f["lhs"] == 2 * f["rhs"] != 0)),
    # every class of W_0, W_1 and W_2 (1 + 2 + 5 of them), and nothing else
    _fault("class_size_b_off_by_one", patch(suites, "class_size_b", lambda original: (
        lambda c: original(c) + 1)),
        Run("test_weyl_fails_on_an_off_by_one_class_size", "weyl", {"nmax": 2}, 51,
            {"class_size": 8}, relation=lambda f: Fraction(f["lhs"]) == f["rhs"] + 1)),
    # z([1]) off by one: 3 does not divide |W_1| = 2, nor 2 divide 1! = 1
    _fault("centralizer_off_by_one", patch(weyl, "_centralizer_factor", lambda original: (
        lambda p, weight: original(p, weight) + (p == Partition([1])))),
        Run("test_weyl_fails_on_a_centralizer_order_that_does_not_divide", "weyl",
            {"nmax": 1}, 44, {("class_size", "2/3", 1): 2, ("class_size_a", "1/2", 1): 1,
                              ("total_a", "1/2", 1): 1},
            by=lambda f: (f["identity"], f["lhs"], f["rhs"]), cli=True)),
    # every class of S_0, ..., S_6 in order and each degree's total after them
    _fault("class_size_a_off_by_one", patch(suites, "class_size_a", lambda original: (
        lambda pi: original(pi) + 1)),
        Run("test_weyl_fails_on_an_off_by_one_symmetric_class_size", "weyl", {"nmax": 0}, 40,
            {"class_size_a": 30, "total_a": 7}, reference=(fields("identity", "d"), lambda: [
                (identity, d) for d, count in enumerate(SYMMETRIC_CLASS_COUNTS)
                for identity in ["class_size_a"] * count + ["total_a"]]),
            relation=each_off_by_its_class_count)),
    _fault("l1_l2_swapped", patch(fam, "reassemble", lambda original: (
        lambda pair, shape: original(fam.LPair(pair.l2, pair.l1), shape))),
        _counting("test_counting_fails_on_a_reassembly_with_l1_and_l2_swapped", 5,
                  {"image": 80, "worked_fibers": 1})),
    _fault("repeated_first_entry", patch(fam, "reassemble", repeated_first_entry),
           _counting("test_counting_fails_on_a_gather_that_repeats_an_entry[5-97-identities0]",
                     5, {"image": 96, "worked_fibers": 1}),
           _counting("test_counting_fails_on_a_gather_that_repeats_an_entry[7-48-identities1]",
                     7, {"image": 48})),
    _fault("fiber_size_prediction_doubled", patch(
        fam, "fiber_size_prediction", lambda original: lambda *args: original(*args) * 2),
        _counting("test_counting_fails_on_a_doubled_fiber_size_prediction", 5,
                  {"fiber": 492, "worked_fibers": 1},
                  relation=lambda f: f["identity"] != "fiber"
                  or f["predicted"] == str(2 * f["observed"]))),
    _fault("slotwise_count_off_by_one", patch(fam, "fiber_count_check", lambda original: (
        lambda *args: original(*args) + 1)),
        _counting("test_counting_fails_on_a_slotwise_count_off_by_one", 5,
                  {"fiber": 492, "worked_fibers": 1},
                  relation=lambda f: f["identity"] != "fiber"
                  or f["slotwise"] == f["observed"] + 1)),
    _fault("dropped_minus_bucket", patch(fam, "family_selections", dropped_minus_bucket),
           _counting("test_counting_fails_where_a_faulty_side_two_half_enters_the_tally[5-1]", 5,
                     {"image": 48, "fiber": 16}, reference=faulty_side_two_half(5, 1)),
           Run("test_counting_fails_where_a_faulty_side_two_half_enters_the_tally[7-2]",
               "counting", {"q": (7,), "t2max": 2}, 179, {"fiber": 9824},
               reference=faulty_side_two_half(7, 2))),
    _fault("fiber_size_prediction", patch(fam, "fiber_size_prediction",
                                          doubled_fiber_size_prediction),
           _per_point_counting("fiber_size_prediction", 5, {"fiber": 72}),
           _per_point_counting("fiber_size_prediction", 7, {"fiber": 60})),
    _fault("fiber_count_check", patch(fam, "fiber_count_check", pair_dependent_slotwise_count),
           _per_point_counting("fiber_count_check", 5, {"fiber": 72}),
           _per_point_counting("fiber_count_check", 7, {"fiber": 60})),
    _fault("u_sign_negated", patch(constants, "u_sign", negated),
           Run("test_aux_fails_on_a_negated_u_sign", "aux", {"rmax": 2}, 15,
               {"u_multiplicative": 15}),
           Run("test_signchain_fails_on_a_negated_u_sign", "signchain", {"rmax": 2}, 960,
               {"chain": 960})),
    _fault("shifted_split_pair", patch(constants, "split_pair_values", shifted_split_pair),
           Run("test_a_shifted_split_pair_fails_signchain_and_aux", "signchain", {"rmax": 2},
               960, {"collapse": 192}),
           Run("test_a_shifted_split_pair_fails_signchain_and_aux", "aux", {"rmax": 2}, 15,
               {"size_forms": 15, "companion_sums": 15, "u_multiplicative": 6}, reference=(
                   # U = U1 U2 breaks where the shifted halves no longer multiply to U
                   lambda failures: {(f["rp"], f["rpp"]) for f in failures
                                     if f["identity"] == "u_multiplicative"},
                   lambda: {(rp, rpp) for rp in range(3) for rpp in range(-2, 3) for m in (1, -1)
                            if constants.u_sign(rp, rpp, m) != constants.u_sign(
                                *constants.split_pair_values(rp, rpp)[:2], m)
                            * constants.u_sign(*constants.split_pair_values(rp, rpp)[2:], m)}))),
    # the sum fails at each row's last point, and the mirror's sizes at
    # (r', -r'') are shifted at the same point
    _fault("split_size_shifted_at_the_last_point",
           patch(constants, "split_sizes", split_size_shifted_at_the_last_point),
           Run("test_split_fails_on_a_split_size_shifted_at_the_last_point_only", "split",
               {"rmax": 2, "nmax": 1}, 60, {"sum": 15, "swap": 15},
               reference=(fields("identity", "rp", "rpp", "Np", "Npp"), lambda: [
                   (identity, rp, rpp, 1, 1) for rp, rpp in constants.pair_window(2)
                   for identity in ("sum", "swap")]),
               relation=lambda f: f["identity"] != "sum" or f["lhs"] == f["rhs"] + 1)),
    # half j reads scd_j, so the halves' product flips where exactly one of them is -1
    _fault("half_negated_at_class_sign_minus_one", half_negated_at_class_sign_minus_one,
           Run("test_signchain_fails_where_a_half_reads_class_sign_minus_one", "signchain",
               {"rmax": 2}, 960, {"collapse": 480},
               reference=(fields("q", "rp", "rpp", "scd1", "scd2", "d2", "d", "n"), lambda: [
                   (q, rp, rpp, s1, s2, d2, d, n)
                   for q, _, rp, rpp, signs in constants.chain_window(2)
                   for s1, s2, d2, d, n in signs if (s1 == -1) != (s2 == -1)]),
               relation=lambda f: f["value"] == -1)),
    # every point but the single n = 0 triple is a bilinearity check
    _fault("constant_character", patch(par, "eval_character_on_image",
                                       lambda _: lambda param, image: -1),
           Run("test_params_fails_on_a_constant_character", "params", {"nmax": 0}, 5266,
               {"bilinearity": 5265})),
    # a point passes exactly when its two factors have the same partitions
    _fault("restriction_to_the_other_eigenspace", patch(par, "restrict", lambda original: (
        lambda cells, h_sign: original(cells, -h_sign))),
        Run("test_params_fails_on_a_restriction_to_the_other_eigenspace", "params", {}, 5474,
            {"restriction": 204},
            relation=lambda f: (f["lam_plus1"], f["lam_minus1"])
            != (f["lam_plus2"], f["lam_minus2"]))),
])
