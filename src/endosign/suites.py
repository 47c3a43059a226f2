"""Batch verification sweeps and enumeration reports.

Each suite sweeps one family of identities exhaustively over a desk-scale
domain, in two generators.  Its window generates the point inputs, at the
level the check works at: a point, or the points of one (r', r''), shape or
block; the tests' side registry calls it at small bounds.  Its check, the
point generator, iterates the window, evaluates each identity's sides on
those inputs and yields one pair (checked, failures) per batch of points:
checked is their number and failures their failure records, each naming
its identity and its point, empty when they all pass.  Most checks yield
every point on its own, as (1, failures); split and signchain yield the
points of one (r', r'') row at once, and constprod those of one
(q, r', r'') row, each evaluating what the row fixes once for it, and
transfer yields those of one (block, eta).  SUITES maps a suite's name to
its check and the specification of its parameters, the check's keywords.
run() owns everything else: it checks the parameters against their bounds
and caps before any point is checked, enters the check once, adds up the
checked counts, times the sweep, collects the failures and builds the
VerificationReport.  A value above its cap is refused there too, before any
point, with an incomplete report, and an enumeration above ENUM_N_CAP
returns an incomplete payload.  The CLI derives its verify subcommands and
flags from SUITES.  The windows and checks of the identities among the
named constants live in the constants module.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from math import factorial

from . import descent as dsc
from . import families as fam
from . import params as par
from .constants import (QuadrupleGamma, aux_points, product_identity_points,
                        sign_chain_points, split_points, split_sizes, transfer_points)
from .localfield import ResidueParam, SquareClass, is_prime
from .partitions import SymplecticPartition, enumerate_partitions, enumerate_symplectic
from .weyl import (brute_class_sizes, brute_class_sizes_a, class_size_a, class_size_b,
                   conjugation_orbit_sizes, order_b)

__all__ = [
    "SUITES", "parameters", "run", "verify_descent", "verify_params",
    "enumerate_params_report", "enumerate_descent_report",
]

ENUM_N_CAP = 8
# The largest q a sweep accepts; ResidueParam tabulates the Legendre symbol
# at all q residues.
Q_CAP = 101


def kappa_window(max_rr: int):
    """(R - r, r, shape, its pairings, its sign vectors) for R - r <= max_rr and r <= 2."""
    for rr in range(0, max_rr + 1, 2):
        for r in (0, 1, 2):
            shape = fam.SplitShape(rr + r, r)
            yield rr, r, shape, fam.enumerate_L(shape), fam.enumerate_e(shape)


def kappa_sum_points(max_rr: int):
    """Transversal character sums against the distinguished-subgroup law.

    For every shape of kappa_window and every sign vector e: the sum over
    pairings of kappa_l2(e) is 0 off the distinguished subgroup and
    |pairings| * kappa_zero(e) on it, with |pairings| from its closed form
    (families.kappa_sum_law).
    """
    for rr, r, shape, pairs, evecs in kappa_window(max_rr):
        for e in evecs:
            total = fam.transversal_character_sum(e, pairs)
            expected = fam.kappa_sum_law(e, shape)
            yield 1, () if total == expected else (
                {"rr": rr, "r": r, "e": list(e), "identity": "kappasum",
                 "lhs": total, "rhs": expected},)


def _counting_shapes(t2: int, q: int):
    """(2 t2, 0) and (2 t2 + 1, 1), and at q = 5 only, for t2 >= 1, (0, 2 t2) and (1, 2 t2 + 1)."""
    shapes = [(2 * t2, 0), (2 * t2 + 1, 1)]
    if q == 5 and t2 >= 1:
        shapes += [(0, 2 * t2), (1, 2 * t2 + 1)]
    return shapes


def _fiber_shapes(t2: int, field: ResidueParam):
    """(shape, pairs, gammas, points) of each shape whose fibers counting checks at t2.

    gammas maps each sign target to its admissible vectors.  points lists,
    sign choice (s1, s2, ue, ue2) first and pairing second, each point's (s1,
    s2, eta, eta2, pairing index, (tau1, tau2), sign target, image key).
    """
    for rp, rpp in _counting_shapes(t2, field.q):
        shape = fam.SplitShape(rp, rpp)
        pairs = fam.enumerate_L(shape)
        gammas = {target: fam.enumerate_gamma(shape, field, target) for target in (1, -1)}
        points = []
        for s1, s2, ue, ue2 in itertools.product((1, -1), repeat=4):
            eta, eta2 = SquareClass(rpp % 2, ue), SquareClass(t2 % 2, ue2)
            taus = (s1 * (eta * eta2).unit_sign, s2 * eta2.unit_sign)
            target = s1 * s2 * ue
            points += [(s1, s2, eta, eta2, pi, taus, target,
                        (pi, target, s2, eta2.val_parity, eta2.unit_sign))
                       for pi in range(len(pairs))]
        yield shape, pairs, gammas, points


def counting_window(field: ResidueParam, t2max: int):
    """(t2, its family-count shape (2 t2, 0), its lazy _fiber_shapes: none past t2 = 1 at q 13)."""
    for t2 in range(t2max + 1):
        capped = field.q == 13 and t2 > 1
        yield t2, fam.SplitShape(2 * t2, 0), () if capped else _fiber_shapes(t2, field)


def counting_points(q, t2max: int):
    """Fiber sizes and family counts of the transversal reassembly map.

    Checks, per field and t2 of counting_window: (a) the family count against
    its closed form, slot choices enumerated exhaustively; (b) per fiber
    shape, the reassembly tally over all families and admissible selections
    lands exactly on the predicted image, and over each vector of the image
    the tallied fiber has the predicted size and agrees with the slotwise
    count.  The family count, the families and the slotwise count read one
    table of slot choices, built once per field.  Includes the worked small
    values (family count 4 at q = 5 with one pair slot; fibers of sizes 2, 1).

    A point is a sign choice (s1, s2, ue, ue2) and a pairing.  Per shape,
    families.reassembly_tallies builds the tally side of every point, keyed
    by flat tuples, and families.image_groups its image; each vector's flat
    tuple low + high is built once, the prediction runs once per vector and
    the slotwise count once per (vector, pairing).
    """
    worked_family_count = None
    worked_fiber_sizes: set[int] = set()
    for field in map(ResidueParam, q):
        choices = fam._slot_choices(field)
        pair_counts = fam.slot_pair_counts(choices)
        for t2, shape0, fiber_shapes in counting_window(field, t2max):
            counted = fam.count_transversal_families(shape0, choices)
            formula = fam.transversal_family_count_formula(shape0, field)
            yield 1, () if counted == formula else (
                {"q": field.q, "t2": t2, "identity": "family_count", "lhs": counted,
                 "rhs": str(formula)},)
            if field.q == 5 and t2 == 1:
                worked_family_count = counted
            for shape, pairs, gammas, points in fiber_shapes:
                tallies = fam.reassembly_tallies(shape, pairs, choices, field)
                images = fam.image_groups(shape, pairs, gammas, field)
                slotwise = {(pi, target): [fam.fiber_count_check(g, pair, pair_counts)
                                           for g in vectors]
                            for pi, pair in enumerate(pairs) for target, vectors in gammas.items()}
                predicted = {target: [fam.fiber_size_prediction(g, shape, field) for g in vectors]
                             for target, vectors in gammas.items()}
                flats = {target: [g.low + g.high for g in vectors]
                         for target, vectors in gammas.items()}
                rp, rpp = shape.rp, shape.rpp
                for s1, s2, eta, eta2, pi, taus, target, key in points:
                    vectors, predictions, flat = gammas[target], predicted[target], flats[target]
                    tally = tallies[taus][pi]
                    image = images.get(key, ())
                    expected = {flat[j] for j in image}
                    if tally.keys() != expected:
                        yield 1, ({"q": field.q, "rp": rp, "rpp": rpp, "scd1": s1, "scd2": s2,
                                   "eta": eta.name(), "eta2": eta2.name(),
                                   "pair": pairs[pi].to_json(), "identity": "image",
                                   "extra": len(tally.keys() - expected),
                                   "missing": len(expected - tally.keys())},)
                        continue
                    failures = ()
                    counts = slotwise[pi, target]
                    for j in image:
                        observed = tally[flat[j]]
                        if counts[j] != observed or observed != predictions[j]:
                            failures += ({
                                "q": field.q, "rp": rp, "rpp": rpp, "scd1": s1, "scd2": s2,
                                "eta": eta.name(), "eta2": eta2.name(),
                                "pair": pairs[pi].to_json(), "gamma": vectors[j].to_json(),
                                "identity": "fiber", "observed": observed,
                                "slotwise": counts[j], "predicted": str(predictions[j])},)
                        elif field.q == 5 and t2 == 1:
                            worked_fiber_sizes.add(observed)
                    yield 1, failures
    if 5 in q and t2max >= 1:
        yield 1, () if worked_family_count == 4 else (
            {"identity": "worked_family_count", "lhs": worked_family_count, "rhs": 4},)
        yield 1, () if worked_fiber_sizes == {1, 2} else (
            {"identity": "worked_fibers", "lhs": sorted(worked_fiber_sizes), "rhs": [1, 2]},)


def weyl_points(nmax: int):
    """Class sizes against the brute-force signed-permutation oracle.

    Checks the centralizer-order formula classwise against full group
    enumeration for N up to nmax, the total-order sum, the independent
    conjugation-orbit oracle at N <= 3, and the symmetric-group analogue.
    """
    for N in range(nmax + 1):
        brute = brute_class_sizes(N)
        total = 0
        for (alpha, beta), size in sorted(brute.items(), key=lambda kv: repr(kv[0])):
            formula = class_size_b((alpha, beta))
            total += size
            yield 1, () if formula == size else (
                {"N": N, "cls": {"alpha": alpha.to_json(), "beta": beta.to_json()},
                 "identity": "class_size", "lhs": str(formula), "rhs": size},)
        yield 1, () if total == order_b(N) else (
            {"N": N, "identity": "total", "lhs": total, "rhs": order_b(N)},)
        if N <= 3:
            yield 1, () if conjugation_orbit_sizes(N) == brute else (
                {"N": N, "identity": "orbit_oracle"},)
    for d in range(7):
        brute_a = brute_class_sizes_a(d)
        for pi, size in sorted(brute_a.items(), key=lambda kv: repr(kv[0])):
            formula = class_size_a(pi)
            yield 1, () if formula == size else (
                {"d": d, "cls": {"pi": pi.to_json()}, "identity": "class_size_a",
                 "lhs": str(formula), "rhs": size},)
        total_a = sum(class_size_a(p) for p in enumerate_partitions(d))
        yield 1, () if total_a == factorial(d) else (
            {"d": d, "identity": "total_a", "lhs": str(total_a), "rhs": factorial(d)},)


def descent_window():
    """(g, datum, N_+, N_-) for r', r'', N', N'' <= 2 and unitary blocks of weight bw <= 2."""
    for rp, rpp in itertools.product(range(3), repeat=2):
        r_plus, r_minus = dsc.r_plus_minus(rp, rpp)
        for bw in range(3):
            for blocks in _block_multisets(bw):
                d = sum(b[0] for b in blocks)
                for Np, Npp in itertools.product(range(3), repeat=2):
                    g = QuadrupleGamma(rp, rpp, Np, Npp)
                    for N_plus in range(Np + Npp - bw + 1):
                        N_minus = Np + Npp - bw - N_plus
                        try:
                            dd = dsc.DescentDatum(
                                N_plus + (r_plus ** 2 + rpp ** 2 - 1) // 2,
                                SquareClass(rpp % 2, (-1) ** (d % 2)),
                                N_minus + (r_minus ** 2 + rpp ** 2) // 2,
                                SquareClass(rpp % 2, 1), blocks)
                        except ValueError:
                            continue
                        yield g, dd, N_plus, N_minus


def split_inputs(g: QuadrupleGamma, dd: dsc.DescentDatum, N_plus: int, N_minus: int):
    """A feasible datum's size splits, their assignment sizes and eta_{1,-}: its splits' inputs."""
    splits = dsc.enumerate_size_splits(dd, g, N_plus, N_minus)
    eta1_minus = SquareClass(((dsc.r_plus_minus(g.rp, g.rpp)[1] + g.rpp) // 2) % 2, 1)
    return splits, [dsc.assignment_sizes(g, split) for split in splits], eta1_minus


def class_sign_window(beta_max: int):
    """(beta, degrees, split) of each class split with inner all-odd blocks, |beta| <= beta_max."""
    for total in range(beta_max + 1):
        for beta in enumerate_partitions(total):
            for fs in ((), (1,), (2,), (1, 2)):
                for split in dsc.class_splits(beta, fs):
                    yield beta, fs, split


def descent_points(beta_max: int):
    """Descent splitting checks.

    (a) the sign-character relation on every point of class_sign_window;
    for each datum of descent_window, (b) its feasibility window, and for
    each size split of split_inputs, (c) solve_split_family's split against
    split_scan's full scan and (d) the sector sums of its assignment sizes
    against the quadruple splitting sizes.
    """
    for beta, fs, split in class_sign_window(beta_max):
        yield 1, () if dsc.whole_class_sign(beta) == dsc.split_class_sign(split) else (
            {"beta": beta.to_json(), "fs": list(fs), "beta_plus": split.beta_plus.to_json(),
             "beta_minus": split.beta_minus.to_json(),
             "beta_blocks": [b.to_json() for b in split.beta_blocks], "identity": "class_sign"},)

    for g, dd, N_plus, N_minus in descent_window():
        if dsc.descent_feasibility(dd, g) != (N_plus, N_minus):
            yield 1, ({"g": g.to_json(), "datum": dd.to_json(), "identity": "feasibility"},)
            continue
        yield 1, ()
        splits, assignments, eta1_minus = split_inputs(g, dd, N_plus, N_minus)
        [expected_sizes] = split_sizes(g.rp, g.rpp, [(g.Np, g.Npp)])
        for split, sizes, matches in zip(splits, assignments, dsc.split_scan(splits, assignments)):
            yield 1, () if dsc.sector_size_sum(sizes, split, dd.blocks) == expected_sizes else (
                {"g": g.to_json(), "split": split.to_json(), "identity": "sector_sum"},)
            got = dsc.solve_split_family(dd, g, sizes, eta1_minus, split.pairs)
            yield 1, () if got == split and matches == [split] else (
                {"g": g.to_json(), "split": split.to_json(), "identity": "unique_split"},)


def _unip_quad_params(n: int):
    for a in range(n + 1):
        for lp in enumerate_symplectic(2 * a):
            for lm in enumerate_symplectic(2 * (n - a)):
                yield par.UnipQuadParam(lp, lm)


def restriction_window(nmax: int):
    """(n, t1, t2, (n1, n2)) for each parameter pair of each endoscopic pair of size n <= nmax."""
    for n in range(nmax + 1):
        for n1, n2 in par.endoscopic_pairs(n):
            for t1 in _unip_quad_params(n1):
                for t2 in _unip_quad_params(n2):
                    yield n, t1, t2, (n1, n2)


def bilinearity_window():
    """((plus blocks, minus blocks), param, im1, im2, im1 im2) for images with up to three
    even blocks on the plus side and one on the minus side; every character, every image pair."""
    for blocks_plus in ((), (2,), (4, 2), (6, 4, 2)):
        for blocks_minus in ((), (2,)):
            sp = SymplecticPartition(blocks_plus)
            sm = SymplecticPartition(blocks_minus)
            keys = [(par.PLUS, k) for k in sp.jord_bp] + [(par.MINUS, k) for k in sm.jord_bp]
            signs = list(itertools.product((1, -1), repeat=len(keys)))
            images = [dict(zip(keys, bits)) for bits in signs]
            for eps_bits in signs:
                eps_plus = {k: e for (side, k), e in zip(keys, eps_bits) if side == par.PLUS}
                eps_minus = {k: e for (side, k), e in zip(keys, eps_bits) if side == par.MINUS}
                param = par.UnipQuadParam(sp, sm, eps_plus, eps_minus)
                for im1 in images:
                    for im2 in images:
                        yield ((blocks_plus, blocks_minus), param, im1, im2,
                               {k: im1[k] * im2[k] for k in keys})


def params_points(nmax: int):
    """Parameter-algebra checks.

    Restriction of every assembled triple of restriction_window to each
    eigenspace of h gives back that factor; and character bilinearity on
    every point of bilinearity_window.
    """
    for n, t1, t2, ns in restriction_window(nmax):
        cells = par.assemble_triple(t1, t2, ns)
        back1, back2 = par.restrict(cells, par.PLUS), par.restrict(cells, par.MINUS)
        yield 1, () if (back1 == (t1.lam_plus, t1.lam_minus)
                        and back2 == (t2.lam_plus, t2.lam_minus)) else (
            {"n": n, "pair": list(ns),
             "lam_plus1": t1.lam_plus.to_json(), "lam_minus1": t1.lam_minus.to_json(),
             "lam_plus2": t2.lam_plus.to_json(), "lam_minus2": t2.lam_minus.to_json(),
             "identity": "restriction"},)

    for blocks, param, im1, im2, prod in bilinearity_window():
        lhs = par.eval_character_on_image(param, prod)
        rhs = par.eval_character_on_image(param, im1) * par.eval_character_on_image(param, im2)
        yield 1, () if lhs == rhs else (
            {"identity": "bilinearity", "blocks": [list(b) for b in blocks],
             "eps_plus": sorted(param.eps_plus.items()),
             "eps_minus": sorted(param.eps_minus.items()),
             "im1": sorted(im1.items()), "im2": sorted(im2.items())},)


# ---------------------------------------------------------------------------
# The registry and its runner.
# ---------------------------------------------------------------------------

# name -> (point generator, parameters).  A parameter is (keyword, default,
# lower bound, cap, step); the q list "q" is (keyword, default, lower bound,
# cap), must hold distinct primes, and its cap bounds the largest q.  A
# keyword is also the report's parameter name, and "--" + keyword, "-" for
# "_", its CLI flag.  Entries stay plain tuples so that tooling can wrap the
# generators in place.
SUITES = {
    "aux": (aux_points, (("rmax", 30, 0, 60, 1),)),
    "split": (split_points, (("rmax", 30, 0, 60, 1), ("nmax", 10, 0, 20, 1))),
    "kappasum": (kappa_sum_points, (("max_rr", 6, 0, 10, 2),)),
    "counting": (counting_points, (("q", (5, 7, 13), 5, Q_CAP), ("t2max", 2, 0, 3, 1))),
    "constprod": (product_identity_points, (("q", (5, 7, 13), 5, Q_CAP),
                                            ("rmax", 6, 0, 10, 1))),
    "signchain": (sign_chain_points, (("rmax", 8, 0, 20, 1),)),
    "transfer": (transfer_points, (("q", (5, 7), 5, Q_CAP), ("rrmax", 4, 0, 6, 2))),
    "weyl": (weyl_points, (("nmax", 4, 0, 5, 1),)),
    "descent": (descent_points, (("beta_max", 8, 0, 10, 1),)),
    "params": (params_points, (("nmax", 3, 0, ENUM_N_CAP, 1),)),
}


def parameters(name: str, given: dict) -> dict:
    """The suite's keyword arguments: the given values over the defaults.

    The q list is kept as a tuple, and run(name, **report.parameters) sweeps
    again.  Raises TypeError for a keyword the suite does not take, a bound
    that is not an int (a bool included) or a q that is not a list or tuple
    of ints, and ValueError for a value below its lower bound or off its
    step, or a q list that is empty, repeats a value, or holds a value that
    is not a prime >= 5.  Caps are checked by run(); a q above its cap is
    left to that check unexamined, so no large q is ever trial-divided.
    """
    specs = SUITES[name][1]
    unknown = sorted(set(given) - {spec[0] for spec in specs})
    if unknown:
        raise TypeError(f"suite {name!r} takes no parameter {unknown[0]!r}")
    values = {}
    for key, default, low, cap, *step in specs:
        value = given.get(key, default)
        if key == "q":
            if not isinstance(value, (list, tuple)) or any(type(q) is not int for q in value):
                raise TypeError(f"q must be a list of ints, got {value!r}")
            value = tuple(value)
            if not value or len(set(value)) < len(value) or \
                    any(q < low or q <= cap and not is_prime(q) for q in value):
                raise ValueError(f"q must list distinct primes >= {low}, got {list(value)}")
        else:
            if type(value) is not int:
                raise TypeError(f"{key} must be an int, got {value!r}")
            step, = step
            if value < low or (value - low) % step:
                kind = "an even integer" if step == 2 else "an integer"
                raise ValueError(f"{key} must be {kind} >= {low}, got {value}")
        values[key] = value
    return values


class VerificationReport:
    """Outcome of one verification sweep, as run() builds it.

    The sweep fills in points_checked, failures, elapsed_ms and notes; a
    report flagged incomplete records a sweep that was refused.
    """

    def __init__(self, suite: str, parameters: dict, incomplete: bool = False):
        self.suite = suite
        self.parameters = parameters
        self.points_checked = 0
        self.failures: list[dict] = []
        self.elapsed_ms = 0
        self.notes: list[str] = []
        self.incomplete = incomplete

    @property
    def passed(self) -> bool:
        return not self.failures and not self.incomplete

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "parameters": self.parameters,
            "points_checked": self.points_checked,
            "failures": self.failures,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.notes:
            out["notes"] = self.notes
        if self.incomplete:
            out["incomplete"] = True
        return out


def run(name: str, **given) -> VerificationReport:
    """Sweep one suite and report every failing point.

    The parameters are checked before any point: TypeError or ValueError for
    an invalid value; a value above its cap is refused with an incomplete
    report that names the cap in parameters["error"] and checks no point.
    The generator is entered once.  A failing constprod report notes, read
    off its records, whether doubling the left side (the alternate two-power
    reading) passes.
    """
    points, specs = SUITES[name]
    values = parameters(name, given)
    for key, _, _, cap, *_ in specs:
        if (max(values[key]) if key == "q" else values[key]) > cap:
            return VerificationReport(name, {"error": f"{key} capped at {cap}"}, incomplete=True)
    start = time.monotonic()
    report = VerificationReport(name, values)
    checked = 0
    for count, failures in points(**values):
        checked += count
        report.failures.extend(failures)
    report.points_checked = checked
    if report.failures and name == "constprod":
        # exact: a point has at most one record, and a passing one (lhs = rhs = +-1) fails doubled
        held = len(report.failures) == checked and all(
            2 * Fraction(f["lhs"]) == f["rhs"] for f in report.failures)
        report.notes.append("failures re-evaluated under the alternate two-power "
                            f"reading: {'pass' if held else 'fail'}")
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report


# perfbench/workloads.py names these two through func=; every other caller uses run().

def verify_descent(**params) -> VerificationReport:
    return run("descent", **params)


def verify_params(**params) -> VerificationReport:
    return run("params", **params)


# ---------------------------------------------------------------------------
# Enumeration reports.
# ---------------------------------------------------------------------------

def enumerate_params_report(n: int) -> dict:
    """Endoscopic pairs, symplectic partitions and parameters for one size.

    Above ENUM_N_CAP the payload is refused: incomplete, naming the cap.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUM_N_CAP:
        return {"kind": "params", "n": n, "incomplete": True,
                "error": f"parameter enumeration capped at n = {ENUM_N_CAP}"}
    partitions = [{"partition": sp.to_json(),
                   "even_blocks": list(sp.jord_bp),
                   "component_group_order": 2 ** len(sp.jord_bp)}
                  for sp in enumerate_symplectic(2 * n)]
    parameters = []
    for t in _unip_quad_params(n):
        chars = 2 ** (len(t.lam_plus.jord_bp) + len(t.lam_minus.jord_bp))
        parameters.append({"lam_plus": t.lam_plus.to_json(),
                           "lam_minus": t.lam_minus.to_json(),
                           "characters": chars})
    counts = {}
    for k in range(n + 1):
        counts[k] = sum(1 for _ in _unip_quad_params(k))
    assembled = [{"pair": [n1, n2], "combinations": counts[n1] * counts[n2]}
                 for n1, n2 in par.endoscopic_pairs(n)]
    return {
        "n": n,
        "pairs": [[a, b] for a, b in par.endoscopic_pairs(n)],
        "symplectic_partitions": partitions,
        "parameters": parameters,
        "parameter_count": len(parameters),
        "assembled": assembled,
    }


def _block_multisets(k: int, floor=(1, 1)):
    if k == 0:
        yield ()
        return
    for dd in range(1, k + 1):
        for f in range(1, k // dd + 1):
            if dd * f <= k and (dd, f) >= floor:
                for rest in _block_multisets(k - dd * f, (dd, f)):
                    yield ((dd, f),) + rest


def enumerate_descent_report(n: int) -> dict:
    """All feasible descent-datum invariant tuples for one size.

    Above ENUM_N_CAP the payload is refused: incomplete, naming the cap.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUM_N_CAP:
        return {"kind": "descent", "n": n, "incomplete": True,
                "error": f"descent enumeration capped at n = {ENUM_N_CAP}"}
    rows = []
    for n_plus in range(n + 1):
        for n_minus in range(n - n_plus + 1):
            k = n - n_plus - n_minus
            for blocks in _block_multisets(k):
                d = sum(b[0] for b in blocks)
                for val in (0, 1):
                    for u_minus in (1, -1):
                        u_plus = u_minus * (-1) ** (d % 2)
                        try:
                            dd = dsc.DescentDatum(
                                n_plus, SquareClass(val, u_plus),
                                n_minus, SquareClass(val, u_minus), blocks)
                        except ValueError:
                            continue
                        rows.append(dd.to_json())
    return {"n": n, "count": len(rows), "data": rows}
