"""The two sides of every swept identity are computed apart.

REGISTRY maps each identity that a sweep checks to its sides and to the
package functions that two of its sides may share, each with a one-line
reason.  An identity is each "identity": "<name>" literal of a failure record
in src/endosign.  A side is a callable that computes, at small bounds, that
side of the identity from inputs built once outside every side.  The inputs are the sweep's own: each comes from the window that the
sweep iterates, called here at small bounds.  The sides of params copy the
sweep's code, and a copy that drifts from the sweep goes unnoticed; every
other side calls the functions its sweep runs.

The guard profiles each side with entered_functions and fails when two
sides enter a package function that the allow-list does not name, or when
the allow-list names a function that no two sides share.  It also checks
that all sides of an identity return the same value.  Sharing a helper
above the leaves would let one fault move both sides alike and pass the
comparison.
"""

import itertools
import re
from math import factorial
from pathlib import Path
from typing import NamedTuple

import pytest

from endosign import constants, suites
from endosign import descent as dsc
from endosign import families as fam
from endosign import params as par
from endosign import weyl
from endosign.localfield import ResidueParam
from endosign.partitions import enumerate_partitions

from test_constants import entered_functions
from test_source_guards import SMALL_SWEEPS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "endosign").glob("*.py"))

class Identity(NamedTuple):
    sides: dict  # side name -> callable returning that side's values
    shared: dict  # package function two sides may enter -> why
    apart: frozenset = frozenset()  # sides that may share only LEAVES with the others


# The leaf primitives that the two sides of any identity may share.
LEAVES = {"legendre", "sgn_cd", "sgn_minus_one"}


F5, F7 = ResidueParam(5), ResidueParam(7)

LEGENDRE = {"legendre": "leaf primitive: the Legendre table lookup"}
R_PLUS_MINUS = "r'_+ and r'_- are defined once; the identity is stated in them"

# --- aux and split: r' <= 3, |r''| <= 3, N', N'' <= 1 -------------------------

PAIRS = list(constants.pair_window(3))
# (r', r'', the (N', N'') of its points, each as (N'', N')) of each row
SPLIT = list(constants.split_window(3, 1))


def _halves(side):
    """side at the split pair of each (r', r''); split_pair_values runs inside the side."""
    return [side(constants.split_pair_values(rp, rpp)) for rp, rpp in PAIRS]


# --- kappasum: R - r <= 4 ---------------------------------------------------

KAPPA = list(suites.kappa_window(4))

# --- counting: family counts at q = 5, 7, t2 <= 2; fibers at q = 5, t2 <= 1 ----

FAMILY_SHAPES = [(f, shape) for f in (F5, F7) for _, shape, _ in suites.counting_window(f, 2)]
# (shape, pairs, gammas, points) of each fiber shape
COUNTING = [block for _, _, shapes in suites.counting_window(F5, 1) for block in shapes]


def _tallies():
    """The sweep's tallies of every shape, from a slot table built inside the side."""
    choices = fam._slot_choices(F5)
    return [fam.reassembly_tallies(shape, pairs, choices, F5) for shape, pairs, _, _ in COUNTING]


def _images():
    """Per shape, image key -> the vectors of that image, from the sweep's grouping."""
    return [{key: [gammas[key[1]][j] for j in group]
             for key, group in fam.image_groups(shape, pairs, gammas, F5).items()}
            for shape, pairs, gammas, _ in COUNTING]


# (shape index, shape, pairing, pairing index, tally key, gamma) for each vector of each image
FIBER_POINTS = [(i, shape, pairs[pi], pi, taus, g)
                for i, ((shape, pairs, _, points), images) in enumerate(zip(COUNTING, _images()))
                for _, _, _, _, pi, taus, _, key in points for g in images.get(key, ())]


# --- constprod: q = 5, 7, r', r'' <= 2 -----------------------------------------

# (field, m, r', r'', the (scd1, scd2, eta, eta1, eta2, beta) of its points) of each row
CONSTPROD_ROWS = list(constants.constprod_window((5, 7), 2))
# (m, r', r'', scd2, eta, eta1, eta2) of each point, as the sweep passes them to the even side
CONSTPROD_POINTS = [(m, rp, rpp, s2, eta, eta1, eta2) for _, m, rp, rpp, points in CONSTPROD_ROWS
                    for _, s2, eta, eta1, eta2, _ in points]

# --- signchain: r' <= 3, |r''| <= 3 --------------------------------------------

# (q, m, r', r'', the (scd1, scd2, d2, d, n) of its points) of each row
CHAIN_ROWS = list(constants.chain_window(3))
# (r', r'', scd1, scd2, d2, n, d, m) of each point, as the sweep passes them to sign_chain
CHAIN_POINTS = [(rp, rpp, s1, s2, d2, n, d, m) for _, m, rp, rpp, signs in CHAIN_ROWS
                for s1, s2, d2, d, n in signs]

# --- transfer: q = 5, R - r <= 4, every third sign vector ----------------------

# R - r = 4 gives t2 = 2, with the last slot pinned to L1 at (4, 0) and free at (5, 1)
TRANSFER_SHAPES = [(field, m, shape, pairs, evecs[::3], *rest)
                   for field, m, shape, pairs, evecs, *rest in constants.transfer_window((5,), 4)]


def _route(block_sign, row, grids):
    """A route's value at each point: its block sign, row entry and entry of grids(*block, etas=).

    row(shape, gamma, pairs, scd2, m, field) is the route's row of gamma.
    """
    out = []
    for field, m, shape, pairs, evecs, gammas, blocks in TRANSFER_SHAPES:
        for scd1, scd2, k_second, uvecs, etas in blocks:
            for (eta, target), eta_grids in zip(etas, grids(pairs, evecs, uvecs, k_second,
                                                            etas=[eta for eta, _ in etas])):
                sign = block_sign(shape, scd1, scd2, eta)
                out += [sign * value * x for gamma in gammas[target] for value, grid in zip(
                    row(shape, gamma, pairs, scd2, m, field), eta_grids) for x in grid]
    return out


# --- weyl: N <= 3, d <= 5 ------------------------------------------------------
# the classes are the brute-force count's own keys, as in the sweep

WEYL_N = range(4)
WEYL_D = range(6)
CLASSES_B = [(N, c) for N in WEYL_N for c in sorted(weyl.brute_class_sizes(N), key=repr)]
CLASSES_A = [(d, pi) for d in WEYL_D for pi in sorted(weyl.brute_class_sizes_a(d), key=repr)]

SIGNED_CYCLE_TYPE = ("conjugation_orbit_sizes labels each orbit by signed_cycle_type, the "
                     "brute count's class key, so that the two can be compared class by class")

# --- descent: |beta| <= 4, and the sweep's own quadruple and datum window ------

CLASS_SIGN_POINTS = list(suites.class_sign_window(4))
DESCENT_DATA = list(suites.descent_window())
# (g, datum, its size splits, their assignment sizes, eta_{1,-}) for each datum
SPLIT_INPUTS = [(g, dd, *suites.split_inputs(g, dd, N_plus, N_minus))
                for g, dd, N_plus, N_minus in DESCENT_DATA]
SIZE_SPLITS = [(g, dd, split, sizes, eta1_minus) for g, dd, splits, assignments, eta1_minus
               in SPLIT_INPUTS for split, sizes in zip(splits, assignments)]

# --- params: n <= 2, and images with up to two even blocks on the plus side -------

RESTRICTION_POINTS = list(suites.restriction_window(2))
BILINEARITY_POINTS = [point for point in suites.bilinearity_window() if len(point[0][0]) <= 2]


REGISTRY = {
    # aux
    "parity_sum": Identity({
        "halves": lambda: _halves(constants.parity_of_halves),
        "pair": lambda: [constants.parity_of_pair(rpp) for _, rpp in PAIRS],
    }, {}),
    "size_forms": Identity({
        "halves": lambda: _halves(constants.size_forms_of_halves),
        "closed": lambda: [constants.size_forms_of_pair(rp, rpp) for rp, rpp in PAIRS],
    }, {}),
    "companion_sums": Identity({
        "halves": lambda: _halves(constants.companion_sums_of_halves),
        "pair": lambda: [constants.companion_sums_of_pair(rp, rpp) for rp, rpp in PAIRS],
    }, {"r_plus_minus": R_PLUS_MINUS}),
    "u_multiplicative": Identity({
        "whole": lambda: [[constants.u_sign(rp, rpp, m) for m in (1, -1)] for rp, rpp in PAIRS],
        "halves": lambda: _halves(lambda halves: [constants.u_of_halves(halves, m)
                                                  for m in (1, -1)]),
    }, {"u_sign": "the identity is U's multiplicativity: U(r', r'') = U(r'_1, r''_1) "
                  "U(r'_2, r''_2), the one function on both sides",
        "u_exponent": "U's exponent u, read by u_sign on both sides",
        "r_plus_minus": "r'_+ enters U's exponent u; " + R_PLUS_MINUS}),
    # split
    "sum": Identity({
        "sizes": lambda: [[n1 + n2 for n1, n2 in constants.split_sizes(rp, rpp, ns)]
                          for rp, rpp, ns, _ in SPLIT],
        "total": lambda: [constants.size_totals(rp, rpp, ns) for rp, rpp, ns, _ in SPLIT],
    }, {}),
    "swap": Identity({
        "pair": lambda: [constants.swapped_split(constants.split_pair_values(rp, rpp),
                                                 constants.split_sizes(rp, rpp, ns))
                         for rp, rpp, ns, _ in SPLIT],
        # the swapped grid is the window's, built once, as in the sweep
        "mirror": lambda: [constants.mirrored_split(rp, rpp, swapped)
                           for rp, rpp, _, swapped in SPLIT],
    }, dict.fromkeys(("split_pair_values", "split_sizes"),
                     "a symmetry of the splitting: both sides evaluate it, at r'' and at -r''")),
    # kappasum
    "kappasum": Identity({
        "sum": lambda: [fam.transversal_character_sum(e, pairs)
                        for _, _, _, pairs, evecs in KAPPA for e in evecs],
        "law": lambda: [fam.kappa_sum_law(e, shape)
                        for _, _, shape, _, evecs in KAPPA for e in evecs],
    }, {}),
    # counting
    "family_count": Identity({
        "enumerated": lambda: [fam.count_transversal_families(shape, fam._slot_choices(field))
                               for field, shape in FAMILY_SHAPES],
        "closed": lambda: [fam.transversal_family_count_formula(shape, field)
                           for field, shape in FAMILY_SHAPES],
    }, {}),
    "image": Identity({
        "tally": lambda: [sorted(tallies[taus][pi])
                          for tallies, (*_, points) in zip(_tallies(), COUNTING)
                          for _, _, _, _, pi, taus, _, _ in points],
        "image": lambda: [sorted(g.low + g.high for g in images.get(key, ()))
                          for images, (*_, points) in zip(_images(), COUNTING)
                          for *_, key in points],
    }, LEGENDRE),
    "fiber": Identity({
        "tally": lambda: [tallies[i][taus][pi][g.low + g.high] for tallies in [_tallies()]
                          for i, _, _, pi, taus, g in FIBER_POINTS],
        "slotwise": lambda: [fam.fiber_count_check(g, pair, counts)
                             for counts in [fam.slot_pair_counts(fam._slot_choices(F5))]
                             for _, _, pair, _, _, g in FIBER_POINTS],
        "predicted": lambda: [fam.fiber_size_prediction(g, shape, F5)
                              for _, shape, *_, g in FIBER_POINTS],
    }, {**LEGENDRE,
        "_slot_choices": "by design the tally's families and the slotwise count read one "
                         "table of slot choices; the prediction reads none",
        "ResidueParam.squares": "field data, read by _slot_choices",
        "ResidueParam.units": "field data, read by _slot_choices"},
        frozenset({"predicted"})),
    "worked_family_count": Identity({
        "enumerated": lambda: fam.count_transversal_families(
            fam.SplitShape(2, 0), fam._slot_choices(F5)),
        "worked": lambda: 4,
    }, {}),
    "worked_fibers": Identity({
        "tally": lambda: {n for (shape, *_), rows in zip(COUNTING, _tallies()) if shape.t2 == 1
                          for row in rows.values() for tally in row for n in tally.values()},
        "worked": lambda: {1, 2},
    }, {}),
    # constprod
    "constprod": Identity({
        # one product_formula_lhs call per row, as in the sweep
        "product": lambda: [value for field, _, rp, rpp, points in CONSTPROD_ROWS
                            for value in constants.product_formula_lhs(rp, rpp, points, field)],
        "even": lambda: [constants.even_case_transfer_constant(eta1, eta2, rp, rpp, s2, eta, m)
                         for m, rp, rpp, s2, eta, eta1, eta2 in CONSTPROD_POINTS],
    }, {"SquareClass.__mul__": "square-class group law: each side checks eta1 eta2 = eta "
                               "on its own",
        "SquareClass.__init__": "value type, built by SquareClass.__mul__",
        "SquareClass.__eq__": "square-class equality, in each side's own check of eta1 eta2 "
                              "= eta"}),
    # signchain
    "chain": Identity({
        "chain": lambda: [constants.sign_chain(*point) for point in CHAIN_POINTS],
        "u": lambda: [(-1) ** n * constants.u_sign(rp, rpp, m)
                      for rp, rpp, _, _, _, n, _, m in CHAIN_POINTS],
    }, {"r_plus_minus": "r'_+ enters the reduction sign and U's exponent; " + R_PLUS_MINUS}),
    "collapse": Identity({
        # one collapse_products call per row, as in the sweep
        "product": lambda: [total for _, m, rp, rpp, signs in CHAIN_ROWS
                            for total in constants.collapse_products(
                                [constants.sign_chain(rp, rpp, s1, s2, d2, n, d, m)
                                 for s1, s2, d2, d, n in signs], rp, rpp, signs, m)],
        "one": lambda: [1] * len(CHAIN_POINTS),
    }, {}),
    # transfer
    "transfer": Identity({
        "per_factor": lambda: _route(
            constants.factorwise_block_sign,
            lambda shape, gamma, pairs, scd2, m, field: constants.factorwise_gamma_factor(
                shape, gamma, pairs, m, field),
            lambda *block, etas: [constants.factorwise_grids(*block, eta) for eta in etas]),
        # the closed grids do not read eta: one call per block, as in the sweep
        "closed": lambda: _route(
            constants.closed_block_sign, constants.transfer_factor_sign,
            lambda *block, etas: [constants.closed_grids(*block)] * len(etas)),
    }, LEGENDRE),
    # weyl
    "class_size": Identity({
        "formula": lambda: [weyl.class_size_b(c) for _, c in CLASSES_B],
        # one brute count per class: cheap at N <= 3
        "brute": lambda: [weyl.brute_class_sizes(N)[c] for N, c in CLASSES_B],
    }, {}),
    "total": Identity({
        "classes": lambda: [sum(weyl.brute_class_sizes(N).values()) for N in WEYL_N],
        "order": lambda: [weyl.order_b(N) for N in WEYL_N],
    }, {}),
    "orbit_oracle": Identity({
        "orbits": lambda: [weyl.conjugation_orbit_sizes(N) for N in WEYL_N],
        "brute": lambda: [dict(weyl.brute_class_sizes(N)) for N in WEYL_N],
    }, {"signed_cycle_type": SIGNED_CYCLE_TYPE,
        "signed_permutations": "the elements of W_N, which both oracles enumerate",
        "Partition.__init__": "value type of the class keys",
        "Partition.__hash__": "the class keys are hashed into each side's dict"}),
    "class_size_a": Identity({
        "formula": lambda: [weyl.class_size_a(pi) for _, pi in CLASSES_A],
        "brute": lambda: [weyl.brute_class_sizes_a(d)[pi] for d, pi in CLASSES_A],
    }, {}),
    "total_a": Identity({
        "classes": lambda: [sum(weyl.class_size_a(pi) for pi in enumerate_partitions(d))
                            for d in WEYL_D],
        "factorial": lambda: [factorial(d) for d in WEYL_D],
    }, {}),
    # descent
    "class_sign": Identity({
        "whole": lambda: [dsc.whole_class_sign(beta) for beta, _, _ in CLASS_SIGN_POINTS],
        "split": lambda: [dsc.split_class_sign(split) for _, _, split in CLASS_SIGN_POINTS],
    }, {"Partition.length": "the identity compares parities of part counts"}),
    "feasibility": Identity({
        "window": lambda: [dsc.descent_feasibility(dd, g) for g, dd, _, _ in DESCENT_DATA],
        "residuals": lambda: [(N_plus, N_minus) for _, _, N_plus, N_minus in DESCENT_DATA],
    }, {}),
    "sector_sum": Identity({
        # the sweep hands sector_size_sum the assignments of split_inputs
        "sectors": lambda: [dsc.sector_size_sum(dsc.assignment_sizes(g, split), split, dd.blocks)
                            for g, dd, split, _, _ in SIZE_SPLITS],
        "quadruple": lambda: [constants.split_sizes(g.rp, g.rpp, [(g.Np, g.Npp)])[0]
                              for g, *_ in SIZE_SPLITS],
    }, {}),
    "unique_split": Identity({
        "solver": lambda: [[dsc.solve_split_family(dd, g, sizes, eta1_minus, split.pairs)]
                           for g, dd, split, sizes, eta1_minus in SIZE_SPLITS],
        # the scan side computes the assignments that the sweep also hands the solver
        "scan": lambda: [matches for g, _, splits, _, _ in SPLIT_INPUTS for matches in
                         dsc.split_scan(splits, [dsc.assignment_sizes(g, split)
                                                 for split in splits])],
    }, {"r_plus_minus": "the sector sizes are stated in r'_+ and r'_-: the solver inverts "
                        "what assignment_sizes computes"}),
    # params
    "restriction": Identity({
        "restricted": lambda: [(par.restrict(cells, par.PLUS), par.restrict(cells, par.MINUS))
                               for cells in (par.assemble_triple(t1, t2, ns)
                                             for _, t1, t2, ns in RESTRICTION_POINTS)],
        "factors": lambda: [((t1.lam_plus, t1.lam_minus), (t2.lam_plus, t2.lam_minus))
                            for _, t1, t2, _ in RESTRICTION_POINTS],
    }, {}),
    "bilinearity": Identity({
        "product": lambda: [par.eval_character_on_image(param, prod)
                            for _, param, _, _, prod in BILINEARITY_POINTS],
        "factors": lambda: [par.eval_character_on_image(param, im1)
                            * par.eval_character_on_image(param, im2)
                            for _, param, im1, im2, _ in BILINEARITY_POINTS],
    }, {"eval_character_on_image": "the identity is this function's multiplicativity: "
                                   "epsilon(xy) = epsilon(x) epsilon(y)"}),
}


def identity_names(source: str) -> set[str]:
    """The names of the "identity" literals of failure records in one source."""
    return set(re.findall(r'"identity": "(\w+)"', source))


def unregistered(sources: list[str]) -> list[str]:
    """The identities of the sources that have no registry entry."""
    return sorted(set().union(*map(identity_names, sources)) - set(REGISTRY))


def run_sides(identity: Identity) -> dict:
    """Side name -> (its value, the package functions it enters).

    A comprehension or generator nested in a function counts as that function.
    """
    out = {}
    for name, side in identity.sides.items():
        value = []
        entered = entered_functions(lambda: value.append(side()))
        out[name] = value[0], {qualname.split(".<locals>.")[0] for qualname in entered}
    return out


def pairwise_sharing(runs: dict) -> dict:
    """(side, side) -> the package functions both enter."""
    return {(a, b): runs[a][1] & runs[b][1] for a, b in itertools.combinations(sorted(runs), 2)}


def unexplained_sharing(identity: Identity, runs: dict) -> dict:
    """(side, side) -> the shared package functions that the allow-list does not name.

    A side in identity.apart may share only LEAVES, allowed or not.
    """
    out = {}
    for (a, b), names in pairwise_sharing(runs).items():
        allowed = set(identity.shared)
        if {a, b} & identity.apart:
            allowed &= LEAVES
        if names - allowed:
            out[a, b] = names - allowed
    return out


def test_every_identity_is_registered():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unregistered(sources) == []
    assert set(REGISTRY) == set().union(*map(identity_names, sources))


def test_an_unregistered_identity_is_caught():
    planted = 'yield 1, ({"identity": "planted", "lhs": 1},)\n'
    assert unregistered([planted]) == ["planted"]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_sides_share_only_what_the_allow_list_names(name):
    identity = REGISTRY[name]
    runs = run_sides(identity)
    values = [value for value, _ in runs.values()]
    # the sides are the identity's: they agree, and one of them does package work
    assert len(runs) >= 2 and all(value == values[0] for value in values)
    assert any(entered for _, entered in runs.values())
    assert unexplained_sharing(identity, runs) == {}
    # no stale entry: each allowed function is shared by some two sides
    assert set(identity.shared) <= set().union(*pairwise_sharing(runs).values())
    assert all(reason.strip() for reason in identity.shared.values())
    assert identity.apart <= set(identity.sides)


def test_the_guard_catches_a_prediction_that_reads_the_slot_table(monkeypatch):
    # The tally and the slotwise count may share the table of slot choices;
    # the closed-form prediction may not.
    original = fam.fiber_size_prediction

    def reading(gamma, shape, rp_field):
        fam._slot_choices(rp_field)
        return original(gamma, shape, rp_field)

    monkeypatch.setattr(fam, "fiber_size_prediction", reading)
    fiber = REGISTRY["fiber"]
    table = {"_slot_choices", "ResidueParam.squares", "ResidueParam.units"}
    assert unexplained_sharing(fiber, run_sides(fiber)) == \
        {("predicted", "slotwise"): table, ("predicted", "tally"): table}


ROUTES, HALVES_PAIR = ("closed", "per_factor"), ("halves", "pair")
# fusion -> (identity, module, the sweep's side function, the fused side's call
# into the other side, the suite, what the guard names).  The first three
# fusions are named by their identities, the others by the function they fuse.
FUSIONS = {
    # a chain that also evaluates U(r', r''); u_sign enters u_exponent, so both are named
    "chain": ("chain", constants, "sign_chain", lambda rp, rpp, *rest: constants.u_sign(
        rp, rpp, rest[-1]), "signchain", {("chain", "u"): {"u_sign", "u_exponent"}}),
    "image": ("image", fam, "image_groups", lambda shape, *_: fam.enumerate_transversal_families(
        shape, []), "counting", {("image", "tally"): {"enumerate_transversal_families"}}),
    "unique_split": ("unique_split", dsc, "split_scan", lambda *_: dsc.descent_feasibility(
        DESCENT_DATA[0][1], DESCENT_DATA[0][0]), "descent",
        {("scan", "solver"): {"descent_feasibility"}}),
    # the closed route's row also evaluates the per-factor route's row
    "transfer_factor_sign": ("transfer", constants, "transfer_factor_sign",
        lambda shape, gamma, pairs, scd2, m, field: constants.factorwise_gamma_factor(
            shape, gamma, pairs, m, field), "transfer",
        {ROUTES: {"factorwise_gamma_factor"}}),
    # the closed block sign also evaluates the per-factor route's block sign
    "closed_block_sign": ("transfer", constants, "closed_block_sign",
        constants.factorwise_block_sign, "transfer", {ROUTES: {"factorwise_block_sign"}}),
    "factorwise_grids": ("transfer", constants, "factorwise_grids", lambda pairs, evecs, *_:
        fam.kappa_l2(evecs[0], pairs[0]), "transfer", {ROUTES: {"kappa_l2"}}),
    "closed_grids": ("transfer", constants, "closed_grids", lambda pairs, evecs, *_:
        constants.factorwise_e_factor(evecs[0], pairs[0]), "transfer",
        {ROUTES: {"factorwise_e_factor"}}),
    "parity_of_halves": ("parity_sum", constants, "parity_of_halves", lambda halves:
        constants.parity_of_pair(halves[1]), "aux", {HALVES_PAIR: {"parity_of_pair"}}),
    "parity_of_pair": ("parity_sum", constants, "parity_of_pair", lambda rpp:
        constants.split_pair_values(0, rpp), "aux", {HALVES_PAIR: {"split_pair_values"}}),
    "size_forms_of_halves": ("size_forms", constants, "size_forms_of_halves", lambda halves:
        constants.split_sizes(*halves[:2], [halves[2:]]), "aux",
        {("closed", "halves"): {"split_sizes"}}),
    "size_forms_of_pair": ("size_forms", constants, "size_forms_of_pair",
        constants.split_pair_values, "aux", {("closed", "halves"): {"split_pair_values"}}),
    "companion_sums_of_halves": ("companion_sums", constants, "companion_sums_of_halves",
        lambda halves: constants.companion_sums_of_pair(*halves[:2]), "aux",
        {HALVES_PAIR: {"companion_sums_of_pair"}}),
    "companion_sums_of_pair": ("companion_sums", constants, "companion_sums_of_pair",
        constants.split_pair_values, "aux", {HALVES_PAIR: {"split_pair_values"}}),
    # u_of_halves multiplies u_sign values, and the whole side enters only what
    # the allow-list names, so the fusion sits in the whole side's u_sign
    "u_sign": ("u_multiplicative", constants, "u_sign", lambda rp, rpp, _:
        constants.split_pair_values(rp, rpp), "aux", {("halves", "whole"): {"split_pair_values"}}),
    # the pairings of shape (0, 0), one with no L2 slot, fit every sign vector
    "kappa_sum_law": ("kappasum", fam, "kappa_sum_law", lambda e, _: fam.transversal_character_sum(
        e, KAPPA[0][3]), "kappasum", {("law", "sum"): {"transversal_character_sum", "kappa_l2"}}),
    # the row's first point also evaluates the even case's constant
    "product_formula_lhs": ("constprod", constants, "product_formula_lhs",
        lambda rp, rpp, points, _: [constants.even_case_transfer_constant(
            eta1, eta2, rp, rpp, s2, eta, 1) for _, s2, eta, eta1, eta2, _ in points[:1]],
        "constprod",
        {("even", "product"): {"even_case_transfer_constant"}}),
    "size_totals": ("sum", constants, "size_totals", lambda rp, rpp, ns: constants.split_sizes(
        rp, rpp, ns), "split", {("sizes", "total"): {"split_sizes"}}),
    "swapped_split": ("swap", constants, "swapped_split", lambda *_: constants.mirrored_split(
        0, 0, []), "split", {("mirror", "pair"): {"mirrored_split"}}),
    "mirrored_split": ("swap", constants, "mirrored_split", lambda *_: constants.swapped_split(
        (0, 0, 0, 0), []), "split", {("mirror", "pair"): {"swapped_split"}}),
    # the first point's split has no inner block, so the fused call reads only part counts
    "whole_class_sign": ("class_sign", dsc, "whole_class_sign", lambda _: dsc.split_class_sign(
        CLASS_SIGN_POINTS[0][2]), "descent", {("split", "whole"): {"split_class_sign"}}),
    "split_class_sign": ("class_sign", dsc, "split_class_sign", lambda split: dsc.whole_class_sign(
        split.beta_plus), "descent", {("split", "whole"): {"whole_class_sign"}}),
}


@pytest.mark.parametrize("name", sorted(FUSIONS))
def test_the_guard_catches_a_fusion_planted_in_the_sweeps_side(name, monkeypatch):
    # The fused side drops what its call returns, so the sweep still passes; the
    # guard, profiling the sweep's own side function, names what the sides share.
    fused_identity, module, function, call, suite, named = FUSIONS[name]
    original = getattr(module, function)

    def fused(*args, **kwargs):
        call(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, function, fused)
    assert suites.run(suite, **dict(SMALL_SWEEPS)[suite]).passed
    identity = REGISTRY[fused_identity]
    assert unexplained_sharing(identity, run_sides(identity)) == named


def test_the_closed_transfer_route_reads_eta_of_l2():
    # on the shapes with B = 1 the closed row reads eta[L2, gamma]; the per-factor row never does
    runs = run_sides(REGISTRY["transfer"])
    assert "eta_of_L2" in runs["closed"][1] - runs["per_factor"][1]
