"""The two sides of every swept identity are computed apart.

REGISTRY maps each identity that a sweep checks to its sides and to the
package functions that two of its sides may share, each with a one-line
reason.  An identity is each "identity": "<name>" literal of a failure record
in src/endosign, plus one fixed name for each record family that carries
none (FIXED).  A side is a callable that computes, at small bounds, that
side of the identity from inputs built once outside every side, as the
sweep builds them outside its checks.  The sides of split, params and
descent's class_sign copy the sweep's code, and a copy that drifts from the
sweep goes unnoticed; every other side calls the functions its sweep runs.

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
from endosign.localfield import ResidueParam, SquareClass, sgn_minus_one
from endosign.partitions import Partition, SymplecticPartition, enumerate_partitions

from test_constants import entered_functions
from test_source_guards import SMALL_SWEEPS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "endosign").glob("*.py"))

# Record families whose failure records carry no "identity" key: aux's four
# checks (keyed by name in the record's detail), kappasum, constprod and
# transfer, and weyl's per-class records of W_N and of S_d.
FIXED = {"parity_sum", "size_forms", "companion_sums", "u_multiplicative", "kappasum",
         "constprod", "transfer", "class_size", "class_size_a"}


class Identity(NamedTuple):
    sides: dict  # side name -> callable returning that side's values
    shared: dict  # package function two sides may enter -> why
    apart: frozenset = frozenset()  # sides that may share only LEAVES with the others


# The leaf primitives that the two sides of any identity may share.
LEAVES = {"legendre", "sgn_cd", "sgn_minus_one"}


F5, F7 = ResidueParam(5), ResidueParam(7)
M = {5: sgn_minus_one(F5), 7: sgn_minus_one(F7)}

LEGENDRE = {"legendre": "leaf primitive: the Legendre table lookup"}
R_PLUS_MINUS = "r'_+ and r'_- are defined once; the identity is stated in them"

# --- aux and split: r' <= 3, |r''| <= 3 ------------------------------------

PAIRS = [(rp, rpp) for rp in range(4) for rpp in range(-3, 4)]


def _halves(side):
    """side at the split pair of each (r', r''); split_pair_values runs inside the side."""
    return [side(constants.split_pair_values(rp, rpp)) for rp, rpp in PAIRS]


SPLIT_POINTS = [(rp, rpp, Np, Npp) for rp, rpp in PAIRS for Np in (0, 1) for Npp in (0, 1)]


def _swapped_splitting():
    out = []
    for rp, rpp, Np, Npp in SPLIT_POINTS:
        r1p, r1pp, r2p, r2pp = constants.split_pair_values(rp, rpp)
        n1, n2 = constants.split_sizes(rp, rpp, Np, Npp)
        out.append(((r2p, r2pp, r1p, r1pp), (n2, n1)))
    return out


# --- kappasum: R - r <= 4 ---------------------------------------------------

KAPPA_POINTS = [(shape, e) for shape in itertools.starmap(
    fam.SplitShape, ((rr + r, r) for rr in (0, 2, 4) for r in (0, 1, 2)))
    for e in fam.enumerate_e(shape)]


# --- counting: q = 5, t2 <= 1 -----------------------------------------------

COUNTING_SHAPES = [fam.SplitShape(rp, rpp) for t2 in (0, 1)
                   for rp, rpp in suites._counting_shapes(t2, 5)]
# the sweep enumerates each shape's pairings and vectors once, for the tally and the image
COUNTING_PAIRS = {shape: fam.enumerate_L(shape) for shape in COUNTING_SHAPES}
GAMMAS = {shape: {target: fam.enumerate_gamma(shape, F5, target) for target in (1, -1)}
          for shape in COUNTING_SHAPES}
# (shape, pairing index, tau1, tau2, image key) as the sweep visits them, with
# tau1 = s1 unit(eta eta2), tau2 = s2 unit(eta2) and eta2 = (t2 mod 2, ue2)
COUNTING_POINTS = [(shape, pi, s1 * ue * ue2, s2 * ue2, (pi, s1 * s2 * ue, s2, shape.t2 % 2, ue2))
                   for shape in COUNTING_SHAPES
                   for s1, s2, ue, ue2 in itertools.product((1, -1), repeat=4)
                   for pi in range(len(COUNTING_PAIRS[shape]))]


def _tallies():
    """The sweep's tallies of every shape, from a slot table built inside the side."""
    choices = fam._slot_choices(F5)
    return {shape: fam.reassembly_tallies(shape, COUNTING_PAIRS[shape], choices, F5)
            for shape in COUNTING_SHAPES}


def _images():
    """Shape -> image key -> the vectors of that image, from the sweep's grouping."""
    return {shape: {key: [GAMMAS[shape][key[1]][j] for j in group] for key, group in
                    fam.image_groups(shape, COUNTING_PAIRS[shape], GAMMAS[shape], F5).items()}
            for shape in COUNTING_SHAPES}


def _tallied_vectors():
    tallies = _tallies()
    return [sorted((g.low, g.high) for g in tallies[shape][tau1, tau2][pi])
            for shape, pi, tau1, tau2, _ in COUNTING_POINTS]


def _image_vectors():
    images = _images()
    return [sorted((g.low, g.high) for g in images[shape].get(key, ()))
            for shape, *_, key in COUNTING_POINTS]


IMAGES = _images()
# (shape, pairing index, tau1, tau2, gamma) for each vector of each image
FIBER_POINTS = [(shape, pi, tau1, tau2, g) for shape, pi, tau1, tau2, key in COUNTING_POINTS
                for g in IMAGES[shape].get(key, ())]


def _tallied_fibers():
    tallies = _tallies()
    return [tallies[shape][tau1, tau2][pi][g] for shape, pi, tau1, tau2, g in FIBER_POINTS]


def _slotwise_fibers():
    counts = fam.slot_pair_counts(fam._slot_choices(F5))
    return [fam.fiber_count_check(g, COUNTING_PAIRS[shape][pi], counts)
            for shape, pi, _, _, g in FIBER_POINTS]


FAMILY_SHAPES = [(field, fam.SplitShape(2 * t2, 0)) for field in (F5, F7) for t2 in range(3)]

# --- constprod: q = 5, 7, r', r'' <= 2 ---------------------------------------


def _constprod_points():
    points = []
    for field in (F5, F7):
        for rp, rpp in itertools.product(range(3), repeat=2):
            if (rp - rpp) % 2:
                continue
            shape = fam.SplitShape(rp, rpp)
            for ue, ue2, s1, s2 in itertools.product((1, -1), repeat=4):
                eta, eta2 = SquareClass(rpp % 2, ue), SquareClass(shape.t2 % 2, ue2)
                eta1 = eta * eta2
                for beta in constants._degenerate_cases(rp, rpp, s1, s2, eta1, eta2):
                    points.append((field, rp, rpp, s1, s2, eta, eta1, eta2, beta))
    return points


CONSTPROD_POINTS = _constprod_points()


# --- signchain: r' <= 3, |r''| <= 3 ------------------------------------------

# (r', r'', scd1, scd2, d2, n, d, m) of each point, as the sweep passes them to sign_chain
CHAIN_POINTS = [(rp, rpp, s1, s2, d2, npar, d1 + d2, M[q]) for q in (5, 7) for rp, rpp in PAIRS
                for s1, s2, d2, d1, npar in itertools.product(
                    (1, -1), (1, -1), (0, 1), (0, 1), (0, 1))]


# --- transfer: q = 5, R - r <= 4 ----------------------------------------------


def _transfer_blocks():
    """One block per (shape, beta', beta''), as the sweep builds them, with each eta's vectors."""
    blocks = []
    # R - r = 4 gives t2 = 2, with the last slot pinned to L1 at (4, 0) and free at (5, 1)
    for rp, rpp in constants._transfer_shapes(4, 5):
        shape = fam.SplitShape(rp, rpp)
        pairs = fam.enumerate_L(shape)
        evecs = fam.enumerate_e(shape)[::3]
        for scd1, scd2 in itertools.product((1, -1), repeat=2):
            # one block per class of sign -1, as in the transfer sweep
            t1 = (1 - scd1) // 2
            t = t1 + (1 - scd2) // 2
            k_second = tuple(range(t1 + 1, t + 1))
            uvecs = list(itertools.product((0, 1), repeat=t))
            etas = [(eta, fam.enumerate_gamma(shape, F5, scd1 * scd2 * eta.unit_sign))
                    for eta in (SquareClass(rpp % 2, ue) for ue in (1, -1))]
            blocks.append((shape, pairs, evecs, uvecs, k_second, scd1, scd2, etas))
    return blocks


TRANSFER_BLOCKS = _transfer_blocks()


def _route(row, grids):
    """A route's value at each point: its row entry times its entry of grids(*block, etas=)."""
    out = []
    for shape, pairs, evecs, uvecs, k_second, scd1, scd2, etas in TRANSFER_BLOCKS:
        for (eta, gammas), eta_grids in zip(etas, grids(pairs, evecs, uvecs, k_second,
                                                        etas=[eta for eta, _ in etas])):
            out += [value * x for gamma in gammas for value, grid in zip(
                row(shape, gamma, pairs, scd1, scd2, eta, M[5], F5), eta_grids) for x in grid]
    return out


# --- weyl: N <= 3, d <= 5 ------------------------------------------------------

WEYL_N = range(4)
WEYL_D = range(6)
CLASSES_B = [(N, c) for N in WEYL_N for c in sorted(weyl.brute_class_sizes(N), key=repr)]
CLASSES_A = [(d, pi) for d in WEYL_D for pi in sorted(weyl.brute_class_sizes_a(d), key=repr)]


def _brute_sizes_b():
    brute = {N: weyl.brute_class_sizes(N) for N in WEYL_N}
    return [brute[N][c] for N, c in CLASSES_B]


def _brute_sizes_a():
    brute = {d: weyl.brute_class_sizes_a(d) for d in WEYL_D}
    return [brute[d][pi] for d, pi in CLASSES_A]


SIGNED_CYCLE_TYPE = ("conjugation_orbit_sizes labels each orbit by signed_cycle_type, the "
                     "brute count's class key, so that the two can be compared class by class")

# --- descent: |beta| <= 4, and the sweep's own quadruple and datum window ------

CLASS_SIGN_POINTS = [(beta, split) for total in range(5) for beta in enumerate_partitions(total)
                     for fs in ((), (1,), (2,), (1, 2)) for split in dsc.class_splits(beta, fs)]
DESCENT_DATA = list(suites.descent_window())
# (g, datum, its size splits) for each datum, and (g, datum, split, its
# assignment, eta_{1,-}) for each size split, as the sweep builds them
DESCENT_SPLITS = [(g, dd, dsc.enumerate_size_splits(dd, g, N_plus, N_minus))
                  for g, dd, N_plus, N_minus in DESCENT_DATA]
SIZE_SPLITS = [(g, dd, split, dsc.assignment_sizes(g, split),
                SquareClass(((dsc.r_plus_minus(g.rp, g.rpp)[1] + g.rpp) // 2) % 2, 1))
               for g, dd, splits in DESCENT_SPLITS for split in splits]


# --- params: n <= 2, and images with up to two even blocks per side --------------

RESTRICTION_POINTS = [(t1, t2, (n1, n2)) for n in range(3) for n1, n2 in par.endoscopic_pairs(n)
                      for t1 in suites._unip_quad_params(n1)
                      for t2 in suites._unip_quad_params(n2)]


def _bilinearity_points():
    points = []
    for blocks_plus, blocks_minus in itertools.product(((), (2,), (4, 2)), ((), (2,))):
        sp = SymplecticPartition(Partition(blocks_plus))
        sm = SymplecticPartition(Partition(blocks_minus))
        keys = [(par.PLUS, k) for k in sp.jord_bp] + [(par.MINUS, k) for k in sm.jord_bp]
        images = [dict(zip(keys, bits)) for bits in itertools.product((1, -1), repeat=len(keys))]
        for eps_bits in itertools.product((1, -1), repeat=len(keys)):
            signs = dict(zip(keys, eps_bits))
            param = par.UnipQuadParam(
                sp, sm, {k: e for (side, k), e in signs.items() if side == par.PLUS},
                {k: e for (side, k), e in signs.items() if side == par.MINUS})
            for im1, im2 in itertools.product(images, repeat=2):
                points.append((param, im1, im2, {k: im1[k] * im2[k] for k in keys}))
    return points


BILINEARITY_POINTS = _bilinearity_points()


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
        "sizes": lambda: [sum(constants.split_sizes(*point)) for point in SPLIT_POINTS],
        "total": lambda: [rp * rp + rp + rpp * rpp + Np + Npp
                          for rp, rpp, Np, Npp in SPLIT_POINTS],
    }, {}),
    "swap": Identity({
        "pair": _swapped_splitting,
        "mirror": lambda: [(constants.split_pair_values(rp, -rpp),
                            constants.split_sizes(rp, -rpp, Npp, Np))
                           for rp, rpp, Np, Npp in SPLIT_POINTS],
    }, {"split_pair_values": "a symmetry of the splitting: both sides evaluate it, "
                             "at r'' and at -r''",
        "split_sizes": "a symmetry of the splitting: both sides evaluate it, at r'' and at -r''"}),
    # kappasum
    "kappasum": Identity({
        "sum": lambda: [fam.transversal_character_sum(e, shape) for shape, e in KAPPA_POINTS],
        "law": lambda: [fam.kappa_sum_law(e, shape) for shape, e in KAPPA_POINTS],
    }, {}),
    # counting
    "family_count": Identity({
        "enumerated": lambda: [fam.count_transversal_families(shape, fam._slot_choices(field))
                               for field, shape in FAMILY_SHAPES],
        "closed": lambda: [fam.transversal_family_count_formula(shape, field)
                           for field, shape in FAMILY_SHAPES],
    }, {}),
    "image": Identity({
        "tally": _tallied_vectors,
        "image": _image_vectors,
    }, {**LEGENDRE,
        "GammaVector.__init__": "value type: each side states its vectors as GammaVectors"}),
    "fiber": Identity({
        "tally": _tallied_fibers,
        "slotwise": _slotwise_fibers,
        "predicted": lambda: [fam.fiber_size_prediction(g, shape, F5)
                              for shape, *_, g in FIBER_POINTS],
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
        "tally": lambda: {n for shape, rows in _tallies().items() if shape.t2 == 1
                          for row in rows.values() for tally in row for n in tally.values()},
        "worked": lambda: {1, 2},
    }, {}),
    # constprod
    "constprod": Identity({
        "product": lambda: [constants.product_formula_lhs(*point, field, alt_two_power=False)
                            for field, *point in CONSTPROD_POINTS],
        "even": lambda: [constants.even_case_transfer_constant(eta1, eta2, rp, rpp, s2, eta,
                                                               M[field.q])
                         for field, rp, rpp, _, s2, eta, eta1, eta2, _ in CONSTPROD_POINTS],
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
        "product": lambda: [constants.collapse_product(
            constants.sign_chain(rp, rpp, s1, s2, d2, n, d, m), rp, rpp, s1, s2, n, m)
            for rp, rpp, s1, s2, d2, n, d, m in CHAIN_POINTS],
        "one": lambda: [1] * len(CHAIN_POINTS),
    }, {}),
    # transfer
    "transfer": Identity({
        "per_factor": lambda: _route(constants.factorwise_gamma_factor, lambda *block, etas: [
            constants.factorwise_grids(*block, eta) for eta in etas]),
        # the closed grids do not read eta: one call per block, as in the sweep
        "closed": lambda: _route(constants.transfer_factor_sign, lambda *block, etas: [
            constants.closed_grids(*block)] * len(etas)),
    }, LEGENDRE),
    # weyl
    "class_size": Identity({
        "formula": lambda: [weyl.class_size_b(c) for _, c in CLASSES_B],
        "brute": _brute_sizes_b,
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
        "brute": _brute_sizes_a,
    }, {}),
    "total_a": Identity({
        "classes": lambda: [sum(weyl.class_size_a(pi) for pi in enumerate_partitions(d))
                            for d in WEYL_D],
        "factorial": lambda: [factorial(d) for d in WEYL_D],
    }, {}),
    # descent
    "class_sign": Identity({
        "whole": lambda: [(-1) ** (beta.length() % 2) for beta, _ in CLASS_SIGN_POINTS],
        "split": lambda: [(-1) ** ((split.beta_plus.length() + split.beta_minus.length()
                                    + sum(b.size() for b in split.beta_blocks)) % 2)
                          for _, split in CLASS_SIGN_POINTS],
    }, {"Partition.length": "the identity compares parities of part counts"}),
    "feasibility": Identity({
        "window": lambda: [dsc.descent_feasibility(dd, g) for g, dd, _, _ in DESCENT_DATA],
        "residuals": lambda: [(N_plus, N_minus) for _, _, N_plus, N_minus in DESCENT_DATA],
    }, {}),
    "sector_sum": Identity({
        "sectors": lambda: [dsc.sector_size_sum(g, split, dd.blocks)
                            for g, dd, split, _, _ in SIZE_SPLITS],
        "quadruple": lambda: [constants.split_sizes(g.rp, g.rpp, g.Np, g.Npp)
                              for g, *_ in SIZE_SPLITS],
    }, {}),
    "unique_split": Identity({
        "solver": lambda: [[dsc.solve_split_family(dd, g, sizes, eta1_minus, split.pairs)]
                           for g, dd, split, sizes, eta1_minus in SIZE_SPLITS],
        # the scan side computes the assignments that the sweep also hands the solver
        "scan": lambda: [matches for g, _, splits in DESCENT_SPLITS for matches in dsc.split_scan(
            splits, [dsc.assignment_sizes(g, split) for split in splits])],
    }, {"r_plus_minus": "the sector sizes are stated in r'_+ and r'_-: the solver inverts "
                        "what assignment_sizes computes"}),
    # params
    "restriction": Identity({
        "restricted": lambda: [(triple.restrict(par.PLUS), triple.restrict(par.MINUS))
                               for triple in itertools.starmap(par.assemble_triple,
                                                               RESTRICTION_POINTS)],
        "factors": lambda: [((t1.lam_plus, t1.lam_minus), (t2.lam_plus, t2.lam_minus))
                            for t1, t2, _ in RESTRICTION_POINTS],
    }, {}),
    "bilinearity": Identity({
        "product": lambda: [par.eval_character_on_image(param, prod)
                            for param, _, _, prod in BILINEARITY_POINTS],
        "factors": lambda: [par.eval_character_on_image(param, im1)
                            * par.eval_character_on_image(param, im2)
                            for param, im1, im2, _ in BILINEARITY_POINTS],
    }, {"eval_character_on_image": "the identity is this function's multiplicativity: "
                                   "epsilon(xy) = epsilon(x) epsilon(y)",
        "SymplecticPartition.jord_bp": "the even blocks epsilon is defined on"}),
}


def identity_names(source: str) -> set[str]:
    """The names of the "identity" literals of failure records in one source."""
    return set(re.findall(r'"identity": "(\w+)"', source))


def unregistered(sources: list[str]) -> list[str]:
    """The identities of the sources and FIXED that have no registry entry."""
    names = FIXED.union(*map(identity_names, sources))
    return sorted(names - set(REGISTRY))


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
    assert set(REGISTRY) == FIXED.union(*map(identity_names, sources))


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
        constants.factorwise_gamma_factor, "transfer", {ROUTES: {"factorwise_gamma_factor"}}),
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
        constants.split_sizes(*halves), "aux", {("closed", "halves"): {"split_sizes"}}),
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
    "kappa_sum_law": ("kappasum", fam, "kappa_sum_law", fam.transversal_character_sum, "kappasum",
        {("law", "sum"): {"transversal_character_sum", "enumerate_L", "LPair.__init__",
                          "kappa_l2"}}),
    "product_formula_lhs": ("constprod", constants, "product_formula_lhs",
        lambda rp, rpp, _, s2, eta, eta1, eta2, *rest: constants.even_case_transfer_constant(
            eta1, eta2, rp, rpp, s2, eta, 1), "constprod",
        {("even", "product"): {"even_case_transfer_constant"}}),
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
