"""Each sweep must fail on a planted wrong formula (non-vacuity), and refuse a value above its cap."""

import inspect
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from endosign import constants, descent, suites, weyl
from endosign import families as fam
from endosign import params as par
from endosign.cli import main
from endosign.localfield import ResidueParam, SquareClass, sgn_minus_one
from endosign.partitions import Partition
from endosign.weyl import sgn_cd

from test_families import scatter
from test_source_guards import SMALL_SWEEPS


def assert_records_name_their_points(report):
    """Every failure record names its identity, and no two records of the report are equal."""
    assert all("identity" in f for f in report.failures)
    records = Counter(json.dumps(f, sort_keys=True) for f in report.failures)
    assert [record for record, count in records.items() if count > 1] == []


def _negated(value):
    # a route's row is a list with one entry per pairing; its e- and u-parts are ints
    return [-x for x in value] if isinstance(value, list) else -value


def test_transfer_fails_on_a_flipped_transfer_factor_sign(monkeypatch):
    original = constants.transfer_factor_sign
    monkeypatch.setattr(constants, "transfer_factor_sign",
                        lambda *args: _negated(original(*args)))
    report = suites.run("transfer", q=(5,), rrmax=0)
    assert report.points_checked > 0
    assert len(report.failures) == report.points_checked
    assert {f["identity"] for f in report.failures} == {"transfer"}
    assert_records_name_their_points(report)
    assert not report.passed


def test_descent_fails_on_an_off_by_one_split_size(monkeypatch):
    original = constants.split_sizes

    def off_by_one(rp, rpp, ns):
        return [(n1 + 1, n2) for n1, n2 in original(rp, rpp, ns)]

    monkeypatch.setattr(suites, "split_sizes", off_by_one)
    report = suites.run("descent", beta_max=0)
    assert {f["identity"] for f in report.failures} == {"sector_sum"}
    assert_records_name_their_points(report)
    assert not report.passed


def test_descent_fails_on_a_solver_that_selects_no_split(monkeypatch):
    monkeypatch.setattr(descent, "solve_split_family", lambda *args: None)
    report = suites.run("descent", beta_max=8)
    assert {f["identity"] for f in report.failures} == {"unique_split"}
    assert_records_name_their_points(report)
    assert len(report.failures) == 1165


def test_descent_fails_on_an_off_by_one_assignment_size(monkeypatch):
    # n_{1,+} one too large at every split: its sector sums miss split_sizes and
    # the solver selects no split, while the scan, whose sizes all moved alike,
    # still matches.  Both identities read the sizes that the sweep built.
    original = descent.assignment_sizes

    def off_by_one(g, split):
        n1_plus, *rest = original(g, split)
        return (n1_plus + 1, *rest)

    expected = [{"g": g.to_json(), "split": split.to_json(), "identity": identity}
                for g, dd, N_plus, N_minus in suites.descent_window()
                for split in descent.enumerate_size_splits(dd, g, N_plus, N_minus)
                for identity in ("sector_sum", "unique_split")]
    monkeypatch.setattr(descent, "assignment_sizes", off_by_one)
    report = suites.run("descent", beta_max=0)
    assert len(expected) == 2 * 1165
    assert report.failures == expected


def test_descent_fails_on_size_splits_with_a_shifted_plus_size(monkeypatch):
    # Each split with N'_- >= 1 gains a copy with one unit moved to N'_+, which
    # keeps both support sums but breaks N'_+ + N''_+ = N_+.
    original = descent.enumerate_size_splits

    def shifted(dd, g, N_plus, N_minus):
        out = []
        for split in original(dd, g, N_plus, N_minus):
            out.append(split)
            if split.Np_minus >= 1:
                out.append(split._replace(Np_plus=split.Np_plus + 1,
                                          Np_minus=split.Np_minus - 1))
        return out

    monkeypatch.setattr(descent, "enumerate_size_splits", shifted)
    report = suites.run("descent", beta_max=2)
    assert report.points_checked == 3892
    assert {f["identity"] for f in report.failures} == {"unique_split"}
    assert_records_name_their_points(report)
    assert len(report.failures) == 434


def test_descent_fails_on_class_splits_that_drop_a_part(monkeypatch):
    original = descent.class_splits

    def dropping(beta, degrees):
        for split in original(beta, degrees):
            yield split._replace(beta_plus=Partition(split.beta_plus.parts[1:]))

    monkeypatch.setattr(descent, "class_splits", dropping)
    report = suites.run("descent", beta_max=8)
    assert {f["identity"] for f in report.failures} == {"class_sign"}
    assert_records_name_their_points(report)
    assert len(report.failures) == 2945


def _entries(monkeypatch, name):
    """The keyword arguments of each entry into the suite's generator, as run() makes them."""
    points, specs = suites.SUITES[name]
    entries = []

    def entered(**values):
        entries.append(values)
        return points(**values)

    monkeypatch.setitem(suites.SUITES, name, (entered, specs))
    return entries


def _halve_products(monkeypatch, at_beta=(0, 1)):
    """Halve the row function's product constants at the points whose beta is in at_beta."""
    original = constants.collapse_and_product_constants

    def halved(rp, rpp, points, rp_field):
        return [product / 2 if beta in at_beta else product
                for product, (*_, beta) in zip(original(rp, rpp, points, rp_field), points)]

    monkeypatch.setattr(constants, "collapse_and_product_constants", halved)


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_each_generator_takes_exactly_its_specs_keywords(name):
    points, specs = suites.SUITES[name]
    assert list(inspect.signature(points).parameters) == [spec[0] for spec in specs]


@pytest.mark.parametrize("name, bounds", SMALL_SWEEPS, ids=[name for name, _ in SMALL_SWEEPS])
def test_a_passing_sweep_enters_its_generator_once(name, bounds, monkeypatch):
    entries = _entries(monkeypatch, name)
    assert suites.run(name, **bounds).passed
    assert entries == [suites.parameters(name, bounds)]


@pytest.mark.parametrize("name, bounds", SMALL_SWEEPS, ids=[name for name, _ in SMALL_SWEEPS])
def test_a_report_re_runs_from_its_own_parameters(name, bounds, capsys):
    report = suites.run(name, **bounds).to_json_dict()
    given = json.loads(json.dumps(report["parameters"]))
    again = suites.run(name, **given).to_json_dict()
    assert {**again, "elapsed_ms": 0} == {**report, "elapsed_ms": 0}
    # the CLI flag of a parameter is "--" + its key with "-" for "_"
    flags = [arg for key, value in given.items()
             for arg in ("--" + key.replace("_", "-"),
                         ",".join(map(str, value)) if key == "q" else str(value))]
    assert main(["verify", name, *flags]) == 0

    def untimed(text):
        return [line for line in text.splitlines(keepends=True)
                if not line.startswith('  "elapsed_ms": ')]

    printed = capsys.readouterr().out
    assert untimed(printed) == untimed(json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_a_keyword_the_suite_does_not_take_is_a_type_error():
    with pytest.raises(TypeError, match="suite 'aux' takes no parameter 'q'"):
        suites.run("aux", q=(5,))


@pytest.mark.parametrize("name, given", [
    ("counting", {"q": (5.0,)}), ("counting", {"q": 5}), ("counting", {"q": "5"}),
    ("aux", {"rmax": 2.0}), ("aux", {"rmax": True}),
])
def test_a_value_of_the_wrong_type_is_a_type_error(name, given, monkeypatch):
    def no_field(self, q):
        raise AssertionError(f"ResidueParam({q!r}) was built for a mistyped parameter")

    monkeypatch.setattr(ResidueParam, "__init__", no_field)
    [key] = given
    with pytest.raises(TypeError, match=f"^{key} must be"):
        suites.run(name, **given)


def test_constprod_fails_on_a_zero_left_side(monkeypatch, capsys):
    # a zero family count makes every left side 0: each point fails as a record
    monkeypatch.setattr(fam, "transversal_family_count_formula", lambda shape, field: Fraction(0))
    report = suites.run("constprod", q=(5,), rmax=0)
    assert len(report.failures) == report.points_checked == 23
    assert {f["identity"] for f in report.failures} == {"constprod"}
    assert all(f["lhs"] == "0" for f in report.failures)
    assert_records_name_their_points(report)
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: fail"]
    assert main(["verify", "constprod", "--q", "5", "--rmax", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report.failures


def test_constprod_fails_on_the_swapped_two_power_reading(monkeypatch):
    # the row function's products, each halved: every point fails by exactly
    # half, so the alternate reading, which doubles the left side, holds.  The
    # note is read off the sweep's records: its generator is entered once.
    _halve_products(monkeypatch)
    entries = _entries(monkeypatch, "constprod")
    report = suites.run("constprod", q=(5, 7), rmax=3)
    assert entries == [{"q": (5, 7), "rmax": 3}]
    assert len(report.failures) == report.points_checked == 294
    assert {f["identity"] for f in report.failures} == {"constprod"}
    assert_records_name_their_points(report)
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: pass"]


def test_constprod_fails_on_a_pair_power_constant_off_by_three(monkeypatch):
    original = constants.pair_power_constant
    monkeypatch.setattr(constants, "pair_power_constant",
                        lambda *args: original(*args) * 3)
    report = suites.run("constprod", q=(5,), rmax=2)
    assert len(report.failures) == report.points_checked > 0
    assert {f["identity"] for f in report.failures} == {"constprod"}
    assert_records_name_their_points(report)
    assert all(f["lhs"] == str(3 * f["rhs"]) for f in report.failures)
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: fail"]


def test_constprod_alternate_reading_can_fail_too(monkeypatch):
    original = constants.even_case_transfer_constant
    monkeypatch.setattr(constants, "even_case_transfer_constant",
                        lambda *args: -original(*args))
    report = suites.run("constprod", q=(5,), rmax=1)
    assert len(report.failures) == report.points_checked > 0
    assert {f["identity"] for f in report.failures} == {"constprod"}
    assert_records_name_their_points(report)
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: fail"]


def _constprod_points(q, rmax, keep):
    """(q, r', r'', scd1, scd2, eta, eta2, beta) of each point of constprod_window that keep admits.

    keep reads the point's (r', r'', scd1, beta).
    """
    return [(field.q, rp, rpp, s1, s2, eta.name(), eta2.name(), beta)
            for field, _, rp, rpp, points in constants.constprod_window(q, rmax)
            for s1, s2, eta, _, eta2, beta in points if keep(rp, rpp, s1, beta)]


def _constprod_failures(report):
    return [(f["q"], f["rp"], f["rpp"], f["scd1"], f["scd2"], f["eta"], f["eta2"], f["beta"])
            for f in report.failures]


def test_constprod_fails_where_the_orientation_sign_reads_scd1_minus_one(monkeypatch):
    # Each point makes three alpha_constant calls, alpha(r', r'') first; the
    # fault negates that one where sgn_cd(w') = -1.  It counts the calls
    # because their arguments cannot single it out: at r' = r'' it can equal
    # the t1 call, and negating both where their scd1 is -1 would cancel.
    # A row function that evaluated the sign at the row's first point, where
    # both class signs are 1, and reused it would miss the fault.
    original, calls = constants.alpha_constant, itertools.count()

    def negated(rp, rpp, scd1, *rest):
        value = original(rp, rpp, scd1, *rest)
        return -value if next(calls) % 3 == 0 and scd1 == -1 else value

    monkeypatch.setattr(constants, "alpha_constant", negated)
    report = suites.run("constprod", q=(5, 7), rmax=3)
    assert_records_name_their_points(report)
    expected = _constprod_points((5, 7), 3, lambda rp, rpp, s1, beta: s1 == -1)
    assert 0 < len(expected) < report.points_checked
    assert _constprod_failures(report) == expected
    assert all(f["lhs"] == str(-f["rhs"]) for f in report.failures)


def test_constprod_fails_on_a_pair_power_constant_wrong_at_one_row(monkeypatch):
    # tripled at (r', r'') = (3, 1) only: exactly that row's points fail, at every q
    original = constants.pair_power_constant

    def tripled(rp, rpp, rp_field):
        return original(rp, rpp, rp_field) * (3 if (rp, rpp) == (3, 1) else 1)

    monkeypatch.setattr(constants, "pair_power_constant", tripled)
    report = suites.run("constprod", q=(5, 7, 13), rmax=3)
    assert_records_name_their_points(report)
    expected = _constprod_points((5, 7, 13), 3, lambda rp, rpp, s1, beta: (rp, rpp) == (3, 1))
    assert {q for q, *_ in expected} == {5, 7, 13}
    assert _constprod_failures(report) == expected
    assert all(f["lhs"] == str(3 * f["rhs"]) for f in report.failures)


def test_constprod_fails_on_a_product_constant_halved_at_beta_zero(monkeypatch):
    # A row function that took the product's magnitude at the row's first
    # point, where beta = 1, and reused it at beta = 0 would double those
    # products, and the fault would hide that.
    _halve_products(monkeypatch, at_beta=(0,))
    report = suites.run("constprod", q=(5, 7), rmax=3)
    assert_records_name_their_points(report)
    expected = _constprod_points((5, 7), 3, lambda rp, rpp, s1, beta: beta == 0)
    assert 0 < len(expected) < report.points_checked
    assert _constprod_failures(report) == expected
    assert all(Fraction(f["lhs"]) == Fraction(f["rhs"], 2) for f in report.failures)
    # every record holds when doubled, but doubled, each passing beta = 1 point fails
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: fail"]


@pytest.mark.parametrize("factor", ["factorwise_gamma_factor", "factorwise_e_factor",
                                    "factorwise_u_factor"])
def test_transfer_fails_on_a_negated_factorwise_factor(factor, monkeypatch):
    original = getattr(constants, factor)
    monkeypatch.setattr(constants, factor, lambda *args: _negated(original(*args)))
    report = suites.run("transfer", q=(5,), rrmax=2)
    assert len(report.failures) == report.points_checked > 0
    assert {f["identity"] for f in report.failures} == {"transfer"}
    assert_records_name_their_points(report)
    assert not report.passed


def _scale_where(module, name, when, factor=-1):
    original = getattr(module, name)
    return module, name, \
        lambda *args: factor * original(*args) if when(*args) else original(*args)


def _scale_row_where(name, when, factor=-1):
    # scales the entries of a route's row whose own pairing satisfies when
    original = getattr(constants, name)

    def faulty(shape, gamma, pairs, *rest):
        return [factor * x if when(shape, gamma, pair, *rest) else x
                for pair, x in zip(pairs, original(shape, gamma, pairs, *rest))]

    return constants, name, faulty


def _negated_top_signs():
    original = constants.factorwise_gamma_factor

    def faulty(shape, gamma, *rest):
        return original(shape, fam.GammaVector(gamma.low, tuple(-s for s in gamma.high)), *rest)

    return constants, "factorwise_gamma_factor", faulty


def _mirrored_pairings():
    # for gamma of even residue sum, the per-factor route reads each
    # pairing's factor off the pairing at the mirrored position of
    # enumerate_L: the row keeps its values, but they move to other pairings
    original = constants.factorwise_gamma_factor

    def faulty(shape, gamma, pairs, *rest):
        if sum(gamma.low) % 2:
            return original(shape, gamma, pairs, *rest)
        every = fam.enumerate_L(shape)
        mirror = {pair.l2: every[-1 - i] for i, pair in enumerate(every)}
        return original(shape, gamma, [mirror[pair.l2] for pair in pairs], *rest)

    return constants, "factorwise_gamma_factor", faulty


def _negated_m(name):
    # both routes' rows take (..., m, rp_field) last
    original = getattr(constants, name)

    def faulty(*args):
        *head, m, rp_field = args
        return original(*head, -m, rp_field)

    return constants, name, faulty


# Faults on a subset of the points, on either side of the identity.  A
# fault on a route's row scales the entries whose own (gamma, pairing)
# satisfies its predicate.  The faults on the e- and u-parts reach a row
# through its route's grid only, and those on the block signs through a
# whole block: the per-factor one where sgn_cd(w'') = unit(eta) = -1, the
# closed one where sgn_cd(w') = -1 on odd t2.  The doubled closed-form sign
# gives rows whose entries are not +-1.  The pairing-position fault flips
# per-factor entries by where their pairing sits in the row, and the
# mirrored pairings move a row's values to other pairings without changing
# them.  The negated top signs reach the per-factor route alone, and the
# flipped eta[L2, gamma] the closed route on B = 1 shapes alone.  A route
# given -m for m = sgn(-1) changes sign where it reads m an odd number of
# times: on the B = 1 shapes with odd t2.
PARTIAL_FAULTS = {
    "transfer_factor_sign": lambda: _scale_row_where(
        "transfer_factor_sign", lambda shape, gamma, *rest: sum(gamma.low) % 3 == 1),
    "transfer_factor_sign_doubled": lambda: _scale_row_where(
        "transfer_factor_sign", lambda shape, gamma, *rest: sum(gamma.low) % 3 == 2,
        factor=2),
    "factorwise_gamma_factor": lambda: _scale_row_where(
        "factorwise_gamma_factor",
        lambda shape, gamma, pair, *rest: pair.l2[:1] == (1,) and gamma.high[:1] == (-1,)),
    "factorwise_gamma_factor_pair_position": lambda: _scale_row_where(
        "factorwise_gamma_factor",
        lambda shape, gamma, pair, *rest: pair.l2[:1] == (1,) and sum(gamma.low) % 2 == 0),
    "factorwise_gamma_factor_mirrored_pairings": _mirrored_pairings,
    "factorwise_gamma_factor_top_signs": _negated_top_signs,
    "factorwise_gamma_factor_negated_m": lambda: _negated_m("factorwise_gamma_factor"),
    "factorwise_block_sign": lambda: _scale_where(
        constants, "factorwise_block_sign",
        lambda shape, scd1, scd2, eta: scd2 == -1 and eta.unit_sign == -1),
    "closed_block_sign": lambda: _scale_where(
        constants, "closed_block_sign",
        lambda shape, scd1, scd2, eta: scd1 == -1 and shape.t2 % 2 == 1),
    "factorwise_e_factor": lambda: _scale_where(
        constants, "factorwise_e_factor", lambda e, pair: e[-1:] == (1,)),
    "factorwise_u_factor": lambda: _scale_where(
        constants, "factorwise_u_factor", lambda u, k_second, eta: sum(u) != 1),
    "kappa_l2": lambda: _scale_where(
        fam, "kappa_l2", lambda e, pair: e[:1] == (1,) and len(pair.l2) == 1),
    "kappa_u": lambda: _scale_where(fam, "kappa_u", lambda u, k_second: u[:1] == (0,)),
    "eta_of_L2": lambda: _flipped_eta_of_l2(),
    "transfer_factor_sign_negated_m": lambda: _negated_m("transfer_factor_sign"),
}


def _per_point_transfer_failures(q, rrmax):
    """The transfer sweep's failures, with both routes evaluated in full at every point.

    No table, no grid, no memo and no row of more than one pairing: each
    point multiplies the per-factor route's block sign, gamma, e- and
    u-factors, and the closed route's block sign, transfer_factor_sign
    (with its eta_of_L2), kappa_l2 and kappa_u, each route's gamma factor
    taken from a one-pairing row.  Only for rrmax <= 2, where every R - r
    takes all of r = 0, 1, 2.
    """
    field = ResidueParam(q)
    m = sgn_minus_one(field)
    failures = []
    for rr in range(0, rrmax + 1, 2):
        for r in (0, 1, 2):
            for rp, rpp in ((rr + r, r), (r, rr + r)) if rr else ((r, r),):
                shape = fam.SplitShape(rp, rpp)
                for beta1, beta2 in itertools.product((Partition(), Partition([1])), repeat=2):
                    scd1 = sgn_cd((Partition(), beta1))
                    scd2 = sgn_cd((Partition(), beta2))
                    t1, t = beta1.length(), beta1.length() + beta2.length()
                    k_second = tuple(range(t1 + 1, t + 1))
                    for ue in (1, -1):
                        eta = SquareClass(rpp % 2, ue)
                        target = scd1 * scd2 * ue
                        for gamma in fam.enumerate_gamma(shape, field, target):
                            for pair in fam.enumerate_L(shape):
                                for e in fam.enumerate_e(shape):
                                    for u in itertools.product((0, 1), repeat=t):
                                        fw = constants.factorwise_block_sign(
                                            shape, scd1, scd2, eta) \
                                            * constants.factorwise_gamma_factor(
                                                shape, gamma, [pair], m, field)[0] \
                                            * constants.factorwise_e_factor(e, pair) \
                                            * constants.factorwise_u_factor(u, k_second, eta)
                                        cl = constants.closed_block_sign(
                                            shape, scd1, scd2, eta) \
                                            * constants.transfer_factor_sign(
                                                shape, gamma, [pair], scd2, m, field)[0] \
                                            * fam.kappa_l2(e, pair) * fam.kappa_u(u, k_second)
                                        if fw != cl:
                                            failures.append(
                                                {"q": q, "rp": rp, "rpp": rpp,
                                                 "scd1": scd1, "scd2": scd2,
                                                 "eta": eta.name(),
                                                 "gamma": gamma.to_json(),
                                                 "e": list(e), "u": list(u),
                                                 "pair": pair.to_json(),
                                                 "identity": "transfer",
                                                 "lhs": fw, "rhs": cl})
    return failures


@pytest.mark.parametrize("fault", sorted(PARTIAL_FAULTS))
def test_transfer_sweep_fails_where_the_per_point_check_fails(fault, monkeypatch):
    monkeypatch.setattr(*PARTIAL_FAULTS[fault]())
    report = suites.run("transfer", q=(5,), rrmax=2)
    assert 0 < len(report.failures) < report.points_checked
    assert_records_name_their_points(report)
    assert report.failures == _per_point_transfer_failures(5, 2)


@pytest.mark.parametrize("fault", ["factorwise_u_factor", "transfer_factor_sign"])
def test_transfer_records_of_one_gamma_differ_by_their_block(fault, monkeypatch):
    monkeypatch.setattr(*PARTIAL_FAULTS[fault]())
    report = suites.run("transfer", q=(5,), rrmax=2)
    assert_records_name_their_points(report)
    # a gamma of one sign target lies in four (beta', beta'', eta) blocks
    blockless = {json.dumps({**f, "scd1": 0, "scd2": 0, "eta": 0}) for f in report.failures}
    assert len(blockless) < len(report.failures)


def test_transfer_eta_of_l2_fault_fails_on_b_one_shapes_only(monkeypatch):
    monkeypatch.setattr(*PARTIAL_FAULTS["eta_of_L2"]())
    report = suites.run("transfer", q=(5,), rrmax=2)
    assert_records_name_their_points(report)
    # the closed route reads eta[L2, gamma] only when B = 1, that is r' < r''
    assert {(f["rp"], f["rpp"]) for f in report.failures} == {(0, 2), (1, 3), (2, 4)}


@pytest.mark.parametrize("fault", ["factorwise_gamma_factor_negated_m",
                                   "transfer_factor_sign_negated_m"])
def test_transfer_negated_m_fails_on_b_one_shapes_with_odd_t2(fault, monkeypatch):
    monkeypatch.setattr(*PARTIAL_FAULTS[fault]())
    report = suites.run("transfer", q=(5,), rrmax=4)
    assert_records_name_their_points(report)
    # the r' < r'' shapes with t2 = 1 fail; (0, 4) and (1, 5), with t2 = 2, pass
    assert {(f["rp"], f["rpp"]) for f in report.failures} == {(0, 2), (1, 3), (2, 4)}


def test_transfer_checks_each_row_once(monkeypatch):
    builds, gammas, calls, yields = Counter(), Counter(), Counter(), []
    original_check = constants.factorwise_transfer_check
    original_gamma = fam.enumerate_gamma
    points, specs = suites.SUITES["transfer"]

    def check(shape, pairs, vectors, *rest):
        builds[shape.rp, shape.rpp] += 1
        return original_check(shape, pairs, vectors, *rest)

    def enumerate_gamma(shape, field, target):
        gammas[shape.rp, shape.rpp] += 1
        return original_gamma(shape, field, target)

    def batches(**values):
        for checked, failures in points(**values):
            yields.append(checked)
            yield checked, failures

    def counted(module, name, key):
        original = getattr(module, name)

        def call(*args):
            calls[key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(constants, "factorwise_transfer_check", check)
    monkeypatch.setattr(fam, "enumerate_gamma", enumerate_gamma)
    monkeypatch.setitem(suites.SUITES, "transfer", (batches, specs))
    counted(fam, "eta_of_L2", lambda gamma, pair, shape, *rest: ("eta_of_L2", shape.b_switch))
    # a row's key: the shape, the vector, the pairings it spans and, for
    # the closed route, scd2 = sgn_cd(w'')
    counted(constants, "factorwise_gamma_factor", lambda shape, gamma, pairs, *rest: (
        "factorwise_gamma_factor", shape.rp, shape.rpp, gamma.low, gamma.high, len(pairs)))
    counted(constants, "transfer_factor_sign", lambda shape, gamma, pairs, scd2, *rest: (
        "transfer_factor_sign", shape.rp, shape.rpp, gamma.low, gamma.high, len(pairs), scd2))
    for name in ("factorwise_grids", "closed_grids", "factorwise_block_sign",
                 "closed_block_sign", "sgn_minus_one"):
        counted(constants, name, lambda *args, name=name: name)
    report = suites.run("transfer", q=(5,), rrmax=2)
    assert report.passed
    shapes = [fam.SplitShape(*shape) for shape in constants._transfer_shapes(2, 5)]
    field = ResidueParam(5)
    vectors = {shape: [gamma for target in (1, -1)
                       for gamma in original_gamma(shape, field, target)]
               for shape in shapes}
    # one vector list per (shape, sign target), shared by the four
    # (beta', beta'', eta) blocks with that target
    assert len(gammas) == len(shapes) == 9 and set(gammas.values()) == {2}
    # one builder call per (shape, sign target)
    assert builds == {(shape.rp, shape.rpp): 2 for shape in shapes}
    # the per-factor row once per vector and the closed row once per
    # (vector, scd2), each over all the shape's pairings
    fw_rows = {("factorwise_gamma_factor", shape.rp, shape.rpp, gamma.low, gamma.high,
                len(fam.enumerate_L(shape))): 1 for shape, gs in vectors.items() for gamma in gs}
    cl_rows = {("transfer_factor_sign", *key[1:], scd2): 1 for key in fw_rows for scd2 in (1, -1)}
    assert {key: n for key, n in calls.items() if key[0] == "factorwise_gamma_factor"} == fw_rows
    assert {key: n for key, n in calls.items() if key[0] == "transfer_factor_sign"} == cl_rows
    # one batch per (shape, beta', beta'', eta) block, of a row of each
    # vector of its target
    assert len(yields) == 8 * len(shapes) == 72
    assert sorted(yields) == sorted(
        len(fam.enumerate_L(shape)) * len(fam.enumerate_e(shape)) * 2 ** t
        * len(original_gamma(shape, field, target))
        for shape in shapes for t in (0, 1, 1, 2) for target in (1, -1))
    # (0, 0) has no vector of target -1, so its four blocks of that target are empty
    assert all(isinstance(n, int) for n in yields) and yields.count(0) == 4
    assert sum(yields) == report.points_checked
    # eta[L2, gamma] once per (vector, pairing, scd2) where B = 1, and never where B = 0
    assert calls["eta_of_L2", 1] == sum(2 * len(gs) * len(fam.enumerate_L(shape))
                                        for shape, gs in vectors.items() if shape.b_switch) > 0
    assert calls["eta_of_L2", 0] == 0
    # per-factor grids and both block signs per (shape, beta', beta'', eta)
    # block, closed grids per (shape, beta', beta'')
    assert calls["factorwise_grids"] == 2 * calls["closed_grids"] == 8 * len(shapes) \
        < len(cl_rows)
    assert calls["factorwise_block_sign"] == calls["closed_block_sign"] == 8 * len(shapes)
    # m = sgn(-1) once per q, here one, and never per row
    assert calls["sgn_minus_one"] == 1


@pytest.mark.parametrize("q, rrmax", [((5,), 2), ((5, 7), 4)])
def test_transfer_keeps_no_table_past_its_shape(q, rrmax, monkeypatch):
    original_check = constants.factorwise_transfer_check
    original_gamma = fam.enumerate_gamma
    alive = Counter()  # (q, r', r'') -> its row-pair groups alive
    filled = Counter()  # (q, r', r'') -> its row-pair groups filled

    class Groups(dict):
        def __init__(self, by_rows, key):
            super().__init__(by_rows)
            self.key = key

        def __del__(self):
            alive[self.key] -= 1

    def check(shape, pairs, vectors, m, rp_field):
        key = (rp_field.q, shape.rp, shape.rpp)
        assert set(+alive) <= {key}
        alive[key] += 2
        filled[key] += 2
        return {scd2: Groups(by_rows, key)
                for scd2, by_rows in original_check(shape, pairs, vectors, m, rp_field).items()}

    def enumerate_gamma(shape, field, target):
        # a shape's vectors are built after every earlier shape's groups are dropped
        assert +alive == Counter()
        return original_gamma(shape, field, target)

    monkeypatch.setattr(constants, "factorwise_transfer_check", check)
    monkeypatch.setattr(fam, "enumerate_gamma", enumerate_gamma)
    report = suites.run("transfer", q=q, rrmax=rrmax)
    assert report.passed
    # per sign target of every shape: the groups of each scd2, none left alive
    assert set(filled.values()) == {4}
    assert +alive == Counter()


def test_a_wrong_closed_block_sign_fails_constprod_and_transfer(monkeypatch):
    # constprod's product constant takes d's block sign from closed_block_sign,
    # so a fault in its one definition fails both identities that read it
    monkeypatch.setattr(*PARTIAL_FAULTS["closed_block_sign"]())
    for suite, bounds in (("constprod", {"rmax": 2}), ("transfer", {"rrmax": 2})):
        report = suites.run(suite, q=(5,), **bounds)
        assert 0 < len(report.failures) < report.points_checked
        assert {f["identity"] for f in report.failures} == {suite}
        assert_records_name_their_points(report)
        # the fault negates the sign where sgn_cd(w') = -1 on odd t2
        assert {f["scd1"] for f in report.failures} == {-1}
        assert {abs(f["rp"] - f["rpp"]) // 2 % 2 for f in report.failures} == {1}


def test_kappasum_fails_on_a_negated_kappa_zero(monkeypatch):
    original = fam.kappa_zero
    monkeypatch.setattr(fam, "kappa_zero", lambda *args: -original(*args))
    report = suites.run("kappasum", max_rr=2)
    assert report.failures and not report.passed
    assert {f["identity"] for f in report.failures} == {"kappasum"}
    assert_records_name_their_points(report)
    assert all(f["lhs"] == -f["rhs"] != 0 for f in report.failures)


def test_kappasum_fails_on_pairings_listed_twice(monkeypatch):
    # the law counts the pairings by their closed form, not by the list the sum runs over
    original = fam.enumerate_L
    monkeypatch.setattr(fam, "enumerate_L", lambda shape: original(shape) * 2)
    report = suites.run("kappasum")
    # every point of the distinguished subgroup fails, with the sum doubled
    assert report.points_checked == 595 and len(report.failures) == 119
    assert {f["identity"] for f in report.failures} == {"kappasum"}
    assert_records_name_their_points(report)
    assert all(f["lhs"] == 2 * f["rhs"] != 0 for f in report.failures)


def test_weyl_fails_on_an_off_by_one_class_size(monkeypatch):
    original = suites.class_size_b
    monkeypatch.setattr(suites, "class_size_b", lambda c: original(c) + 1)
    report = suites.run("weyl", nmax=2)
    # every class of W_0, W_1 and W_2 (1 + 2 + 5 of them), and nothing else
    assert len(report.failures) == 8
    assert {f["identity"] for f in report.failures} == {"class_size"}
    assert_records_name_their_points(report)
    assert all(Fraction(f["lhs"]) == f["rhs"] + 1 for f in report.failures)


def test_weyl_fails_on_a_centralizer_order_that_does_not_divide(monkeypatch, capsys):
    # z([1]) off by one: 3 does not divide |W_1| = 2, nor 2 divide 1! = 1
    original = weyl._centralizer_factor
    monkeypatch.setattr(weyl, "_centralizer_factor",
                        lambda p, weight: original(p, weight) + (p == Partition([1])))
    report = suites.run("weyl", nmax=1)
    assert_records_name_their_points(report)
    assert sorted((f["identity"], f["lhs"], f["rhs"]) for f in report.failures) == [
        ("class_size", "2/3", 1), ("class_size", "2/3", 1),
        ("class_size_a", "1/2", 1), ("total_a", "1/2", 1)]
    assert main(["verify", "weyl", "--nmax", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report.failures


def test_weyl_fails_on_an_off_by_one_symmetric_class_size(monkeypatch):
    original = suites.class_size_a
    monkeypatch.setattr(suites, "class_size_a", lambda pi: original(pi) + 1)
    report = suites.run("weyl", nmax=0)
    # every class of S_0, ..., S_6 (1 + 1 + 2 + 3 + 5 + 7 + 11 of them) and
    # the seven totals, each off by its number of classes, and nothing else
    class_counts = [1, 1, 2, 3, 5, 7, 11]
    assert len(report.failures) == 37
    assert {f["identity"] for f in report.failures} == {"class_size_a", "total_a"}
    assert_records_name_their_points(report)
    classes = [f for f in report.failures if "cls" in f]
    assert [f["d"] for f in classes] == [d for d in range(7) for _ in range(class_counts[d])]
    assert all(Fraction(f["lhs"]) == f["rhs"] + 1 and list(f["cls"]) == ["pi"]
               and sum(f["cls"]["pi"]) == f["d"] for f in classes)
    totals = [f for f in report.failures if "cls" not in f]
    assert [(f["identity"], Fraction(f["lhs"]) - f["rhs"]) for f in totals] == \
        [("total_a", count) for count in class_counts]


def test_counting_fails_on_a_reassembly_with_l1_and_l2_swapped(monkeypatch):
    original = fam.reassemble
    monkeypatch.setattr(fam, "reassemble", lambda pair, shape: original(
        fam.LPair(pair.l2, pair.l1), shape))
    report = suites.run("counting", q=(5,), t2max=1)
    assert report.failures and not report.passed
    assert {f["identity"] for f in report.failures} == {"image", "worked_fibers"}
    assert_records_name_their_points(report)


def _repeated_first_entry():
    # gamma's first entry also lands in its second place, so the gather is not
    # injective: joined pairs that differ only there reassemble to one tuple
    original = fam.reassemble

    def repeating(pair, shape):
        gather = original(pair, shape)

        def repeated(joined):
            flat = gather(joined)
            return flat[:1] + flat[:1] + flat[2:] if len(flat) >= 2 else flat

        return repeated

    return fam, "reassemble", repeating


def _family_sides(family, shape, field):
    """A family's side-1 and side-2 selections, as reassembly_tallies builds them."""
    return (fam.family_selections([g1 for g1, _ in family], shape.r, field),
            fam.family_selections([g2 for _, g2 in family], 0, field))


def _per_preimage_tallies(shape, pairs, choices, field):
    """reassembly_tallies with each (family, c1, c2, pairing) reassembled on its own."""
    tallies = {taus: [Counter() for _ in pairs] for taus in itertools.product((1, -1), (1, -1))}
    for family in fam.enumerate_transversal_families(shape, choices):
        side1, side2 = _family_sides(family, shape, field)
        for (tau1, tau2), row in tallies.items():
            for c1, c2, (pair, tally) in itertools.product(side1[tau1], side2[tau2],
                                                           zip(pairs, row)):
                tally[fam.reassemble(pair, shape)(c1 + c2)] += 1
    return {taus: [dict(tally) for tally in row] for taus, row in tallies.items()}


@pytest.mark.parametrize("q", [5, 7])
def test_the_tally_is_the_per_preimage_tally(q, monkeypatch):
    field = ResidueParam(q)
    choices = fam._slot_choices(field)
    blocks = [block for _, _, shapes in suites.counting_window(field, 1) for block in shapes]
    assert len(blocks) == {5: 6, 7: 4}[q]

    def both():
        return [(fam.reassembly_tallies(shape, pairs, choices, field),
                 _per_preimage_tallies(shape, pairs, choices, field))
                for shape, pairs, _, _ in blocks]

    real = both()
    monkeypatch.setattr(*_repeated_first_entry())
    planted = both()
    for tallies, reference in real + planted:
        assert tallies == reference
    # the planted gather merges preimages: fewer keys, the same total count
    def total(run, measure):
        return sum(measure(tally) for tallies, _ in run for row in tallies.values()
                   for tally in row)

    assert total(planted, len) < total(real, len)
    assert total(planted, lambda tally: sum(tally.values())) == \
        total(real, lambda tally: sum(tally.values()))


@pytest.mark.parametrize("q, count, identities",
                         [(5, 97, {"image", "worked_fibers"}), (7, 48, {"image"})])
def test_counting_fails_on_a_gather_that_repeats_an_entry(q, count, identities, monkeypatch):
    monkeypatch.setattr(*_repeated_first_entry())
    report = suites.run("counting", q=(q,), t2max=1)
    assert len(report.failures) == count
    assert {f["identity"] for f in report.failures} == identities
    assert_records_name_their_points(report)


def test_counting_fails_on_a_doubled_fiber_size_prediction(monkeypatch):
    original = fam.fiber_size_prediction
    monkeypatch.setattr(fam, "fiber_size_prediction", lambda *args: original(*args) * 2)
    report = suites.run("counting", q=(5,), t2max=1)
    assert report.failures and not report.passed
    assert {f["identity"] for f in report.failures} == {"fiber", "worked_fibers"}
    assert_records_name_their_points(report)
    fibers = [f for f in report.failures if f["identity"] == "fiber"]
    assert fibers and all(f["predicted"] == str(2 * f["observed"]) for f in fibers)


def test_counting_fails_on_a_slotwise_count_off_by_one(monkeypatch):
    original = fam.fiber_count_check
    monkeypatch.setattr(fam, "fiber_count_check", lambda *args: original(*args) + 1)
    report = suites.run("counting", q=(5,), t2max=1)
    assert {f["identity"] for f in report.failures} == {"fiber", "worked_fibers"}
    assert_records_name_their_points(report)
    fibers = [f for f in report.failures if f["identity"] == "fiber"]
    assert len(fibers) == len(report.failures) - 1 == 492
    assert all(f["slotwise"] == f["observed"] + 1 for f in fibers)


def test_counting_rejects_components_that_do_not_match_the_shape(monkeypatch):
    original = fam.family_selections
    for side, change in itertools.product((1, 2), (-1, 1)):
        built = itertools.count(1)

        def misshapen(halves, r, rp_field, _side=side, _change=change, _built=built):
            buckets = original(halves, r, rp_field)
            # per family, side 1 is built first and side 2 second
            if (next(_built) - _side) % 2 == 0 and len(halves) == 1:
                # every selection of the side one entry short or long
                return {sign: [sel[:-1] if _change < 0 else sel + (1,) for sel in sels]
                        for sign, sels in buckets.items()}
            return buckets

        with monkeypatch.context() as patch:
            patch.setattr(fam, "family_selections", misshapen)
            with pytest.raises(ValueError, match="component lengths do not match the shape"):
                suites.run("counting", q=(5,), t2max=1)


def test_counting_builds_the_slot_choices_once_per_field(monkeypatch):
    original = fam._slot_choices
    builds = []

    def counted(field):
        builds.append(field.q)
        return original(field)

    monkeypatch.setattr(fam, "_slot_choices", counted)
    report = suites.run("counting", q=(5,), t2max=1)
    assert report.passed
    # one table serves the family counts, the families of every shape and
    # the slotwise count
    assert builds == [5]


def test_counting_builds_each_tally_once(monkeypatch):
    calls = {"family_selections": 0, "reassemble": 0, "enumerate_gamma": 0, "eta_of_L2": 0,
             "fiber_count_check": 0, "fiber_size_prediction": 0, "gather": 0}
    for name in calls.keys() - {"gather"}:
        original = getattr(fam, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fam, name, counted)
    counted_reassemble = fam.reassemble

    def reassemble(pair, shape):
        gather = counted_reassemble(pair, shape)

        def applied(joined):
            calls["gather"] += 1
            return gather(joined)

        return applied

    monkeypatch.setattr(fam, "reassemble", reassemble)
    report = suites.run("counting", q=(5,), t2max=1)
    assert report.passed
    # two selection tables per (shape, family), one gather per (shape,
    # pairing), one vector list per (shape, sign target), one eta_of_L2 per
    # (vector, pairing, sgn_cd(w2)), one slotwise count per (vector,
    # pairing) and one prediction per (shape, vector); one reassembly per
    # preimage would be 163 calls, and one vector list, eta_of_L2, slotwise
    # count and prediction per point 96, 984, 492 and 492.  Each gather maps
    # each distinct joined pair of (tau1, tau2) once: 123 applications, where
    # one per (preimage, pairing) would be 163
    assert calls == {"family_selections": 36, "reassemble": 8, "enumerate_gamma": 12,
                     "eta_of_L2": 246, "fiber_count_check": 123,
                     "fiber_size_prediction": 75, "gather": 123}


@pytest.mark.parametrize("q, t2max", [(5, 1), (7, 2)])
def test_counting_keeps_no_family_past_its_iteration(q, t2max, monkeypatch):
    original = fam.family_selections
    alive = {"now": 0, "peak": 0}

    class Table(dict):
        def __del__(self):
            alive["now"] -= 1

    def counted(*args):
        table = Table(original(*args))
        alive["now"] += 1
        alive["peak"] = max(alive["peak"], alive["now"])
        return table

    monkeypatch.setattr(fam, "family_selections", counted)
    report = suites.run("counting", q=(q,), t2max=t2max)
    assert report.passed
    # one family's two tables, and the next family's two while they are built
    assert 0 < alive["peak"] <= 4


def _per_point_counting_failures(q, t2max):
    """The counting sweep's image and fiber failures, one tally per point.

    Every sign choice (s1, s2, ue, ue2) and pairing builds its own tally,
    one scatter per preimage keyed by gamma's flat tuple, and its own image,
    in the order in which the sweep reports them.
    """
    field = ResidueParam(q)
    choices = fam._slot_choices(field)
    pair_counts = fam.slot_pair_counts(choices)
    failures = []
    for t2, _, fiber_shapes in suites.counting_window(field, t2max):
        for shape, *_ in fiber_shapes:
            rp, rpp = shape.rp, shape.rpp
            tables = [_family_sides(family, shape, field)
                      for family in fam.enumerate_transversal_families(shape, choices)]
            for s1, s2, ue, ue2 in itertools.product((1, -1), repeat=4):
                eta, eta2 = SquareClass(rpp % 2, ue), SquareClass(t2 % 2, ue2)
                eta1 = eta * eta2
                gammas = fam.enumerate_gamma(shape, field, s1 * s2 * ue)
                for pair in fam.enumerate_L(shape):
                    image = [g for g in gammas
                             if fam.eta_of_L2(g, pair, shape, s2, field) == eta2]
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


def _flipped_eta_of_l2():
    original = fam.eta_of_L2

    def flipped(gamma, pair, shape, scd2, rp_field):
        eta2 = original(gamma, pair, shape, scd2, rp_field)
        if scd2 == -1 and gamma.low[:1] == (2,):
            return SquareClass(eta2.val_parity, -eta2.unit_sign)
        return eta2

    return fam, "eta_of_L2", flipped


def _doubled_fiber_size_prediction():
    original = fam.fiber_size_prediction

    def doubled(gamma, shape, rp_field):
        predicted = original(gamma, shape, rp_field)
        if gamma.low[:1] == (1,) and gamma.high[:1] != (-1,):
            return predicted * 2
        return predicted

    return fam, "fiber_size_prediction", doubled


def _pair_dependent_slotwise_count():
    original = fam.fiber_count_check

    def off_by_one(gamma, pair, counts):
        observed = original(gamma, pair, counts)
        if pair.l1[:1] == (2,) and gamma.low[:1] == (1,):
            return observed + 1
        return observed

    return fam, "fiber_count_check", off_by_one


# Faults on a subset of the points, each on one side of the identity: the
# failing identity and the number of failures at q = 5 and q = 7, t2max 1.
# Every tally is shared by sign choices with both signs of sgn_cd(w2), so
# the eta_of_L2 fault passes at the first point that builds a tally and
# fails at others that read it.  The fiber_count_check fault depends on the
# pairing, so a slotwise count shared across pairings would misplace it.
COUNTING_FAULTS = {
    "eta_of_L2": (_flipped_eta_of_l2, "image", {5: 48, 7: 24}),
    "fiber_size_prediction": (_doubled_fiber_size_prediction, "fiber", {5: 72, 7: 60}),
    "fiber_count_check": (_pair_dependent_slotwise_count, "fiber", {5: 72, 7: 60}),
}


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("fault", sorted(COUNTING_FAULTS))
def test_counting_sweep_fails_where_the_per_point_check_fails(fault, q, monkeypatch):
    plant, identity, counts = COUNTING_FAULTS[fault]
    monkeypatch.setattr(*plant())
    report = suites.run("counting", q=(q,), t2max=1)
    shaped = [f for f in report.failures if f["identity"] in ("image", "fiber")]
    assert_records_name_their_points(report)
    assert len(shaped) == counts[q]
    assert {f["identity"] for f in shaped} == {identity}
    assert shaped == _per_point_counting_failures(q, 1)


def test_aux_fails_on_a_negated_u_sign(monkeypatch):
    original = constants.u_sign
    monkeypatch.setattr(constants, "u_sign", lambda *args: -original(*args))
    report = suites.run("aux", rmax=2)
    assert len(report.failures) == report.points_checked > 0
    assert {f["identity"] for f in report.failures} == {"u_multiplicative"}
    assert_records_name_their_points(report)


def test_split_fails_on_an_off_by_one_split_size(monkeypatch):
    original = constants.split_sizes

    def off_by_one(rp, rpp, ns):
        return [(n1 + 1, n2) for n1, n2 in original(rp, rpp, ns)]

    monkeypatch.setattr(constants, "split_sizes", off_by_one)
    report = suites.run("split", rmax=2, nmax=1)
    assert_records_name_their_points(report)
    sums = [f for f in report.failures if f["identity"] == "sum"]
    assert len(sums) == report.points_checked > 0
    assert all(f["lhs"] == f["rhs"] + 1 for f in sums)


def test_split_fails_on_a_split_size_shifted_at_the_last_point_only(monkeypatch):
    # n1 + 1 only at N' = N'' = nmax, the last point of each row: a row
    # function that evaluated the row's first point and reused it would miss it
    original, nmax = constants.split_sizes, 1

    def shifted(rp, rpp, ns):
        return [(n1 + ((Np, Npp) == (nmax, nmax)), n2)
                for (Np, Npp), (n1, n2) in zip(ns, original(rp, rpp, ns))]

    monkeypatch.setattr(constants, "split_sizes", shifted)
    report = suites.run("split", rmax=2, nmax=nmax)
    assert_records_name_their_points(report)
    corners = [(rp, rpp, nmax, nmax) for rp, rpp in constants.pair_window(2)]
    sums = [f for f in report.failures if f["identity"] == "sum"]
    assert [(f["rp"], f["rpp"], f["Np"], f["Npp"]) for f in sums] == corners
    assert all(f["lhs"] == f["rhs"] + 1 for f in sums)
    # the mirror's sizes at (r', -r'') are shifted at the same point
    assert {(f["rp"], f["rpp"], f["Np"], f["Npp"]) for f in report.failures} == set(corners)


def test_signchain_fails_where_a_half_reads_class_sign_minus_one(monkeypatch):
    # The fault negates the halves' constants at class sign -1 and leaves
    # sign_chain's own call exact, so only the collapse moves.  A row function
    # that evaluated the halves at the row's first point, where both class
    # signs are 1, and reused them would miss it.
    original_constants, original_chain = constants.chain_sign_constants, constants.sign_chain

    def negated(rp, rpp, scd1, *rest):
        base, endo, reduction = original_constants(rp, rpp, scd1, *rest)
        return -base if scd1 == -1 else base, endo, reduction

    def exact_chain(*args):
        constants.chain_sign_constants = original_constants
        try:
            return original_chain(*args)
        finally:
            constants.chain_sign_constants = negated

    monkeypatch.setattr(constants, "chain_sign_constants", negated)
    monkeypatch.setattr(constants, "sign_chain", exact_chain)
    report = suites.run("signchain", rmax=2)
    assert_records_name_their_points(report)
    # half j reads scd_j, so the halves' product flips where exactly one of them is -1
    flipped = [(q, rp, rpp, s1, s2, d2, d, n) for q, _, rp, rpp, signs in constants.chain_window(2)
               for s1, s2, d2, d, n in signs if (s1 == -1) != (s2 == -1)]
    assert len(report.failures) == len(flipped) > 0
    assert [(f["q"], f["rp"], f["rpp"], f["scd1"], f["scd2"], f["d2"], f["d"], f["n"])
            for f in report.failures] == flipped
    assert all(f["identity"] == "collapse" and f["value"] == -1 for f in report.failures)


def _batches_and_calls(monkeypatch, suite, names, **values):
    """The checked count of each batch that suite yields at values, and the calls of names.

    Each name is a function of the constants module; the suite must pass.
    """
    calls, yields = Counter(), []
    points, specs = suites.SUITES[suite]

    def batches(**values):
        for checked, failures in points(**values):
            yields.append(checked)
            yield checked, failures

    def counted(name):
        original = getattr(constants, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(constants, name, call)

    monkeypatch.setitem(suites.SUITES, suite, (batches, specs))
    for name in names:
        counted(name)
    assert suites.run(suite, **values).passed
    return yields, calls


def test_split_checks_each_row_at_once(monkeypatch):
    yields, calls = _batches_and_calls(monkeypatch, "split", ["split_sizes"], rmax=2, nmax=1)
    # one batch per (r', r''), of its (nmax + 1)^2 points
    assert yields == [4] * 15
    # one split_sizes call for the row and one for its mirror at (r', -r'')
    assert calls == {"split_sizes": 2 * 15}


def test_signchain_checks_each_row_at_once(monkeypatch):
    names = ["sign_chain", "chain_sign_constants", "split_pair_values", "split_sizes"]
    yields, calls = _batches_and_calls(monkeypatch, "signchain", names, rmax=2)
    # one batch per (q, r', r''), of its 32 class-sign and block-count points
    rows = 2 * 3 * 5
    assert yields == [32] * rows
    # sign_chain per point, one chain_sign_constants call each; the split pair
    # and its sizes once per row, and each half at both class signs
    assert calls["sign_chain"] == 32 * rows
    assert calls["split_pair_values"] == calls["split_sizes"] == rows
    assert calls["chain_sign_constants"] - calls["sign_chain"] == 2 * 2 * rows


def test_constprod_checks_each_row_at_once(monkeypatch):
    original, family_counts = fam.transversal_family_count_formula, []

    def counted(*args):
        family_counts.append(args)
        return original(*args)

    monkeypatch.setattr(fam, "transversal_family_count_formula", counted)
    names = ["collapse_and_product_constants", "pair_power_constant", "alpha_constant",
             "even_case_transfer_constant"]
    yields, calls = _batches_and_calls(monkeypatch, "constprod", names, q=(5, 7), rmax=2)
    rows = list(constants.constprod_window((5, 7), 2))
    # one batch per (q, r', r'') of equal parity, of all of its points
    assert [(field.q, rp, rpp) for field, _, rp, rpp, _ in rows] == \
        [(q, rp, rpp) for q in (5, 7) for rp in range(3) for rpp in range(3) if (rp - rpp) % 2 == 0]
    assert yields == [len(points) for *_, points in rows]
    # the row function, its pair power constant and the family count once per row;
    # the three orientation signs and the right-hand side per point
    assert calls["collapse_and_product_constants"] == calls["pair_power_constant"] == \
        len(family_counts) == len(rows)
    assert calls["alpha_constant"] == 3 * calls["even_case_transfer_constant"] == 3 * sum(yields)


def test_signchain_fails_on_a_negated_u_sign(monkeypatch):
    original = constants.u_sign
    monkeypatch.setattr(constants, "u_sign", lambda *args: -original(*args))
    report = suites.run("signchain", rmax=2)
    assert len(report.failures) == report.points_checked > 0
    assert {f["identity"] for f in report.failures} == {"chain"}
    assert_records_name_their_points(report)


def test_a_shifted_split_pair_fails_signchain_and_aux(monkeypatch):
    # r''_1 + 2 breaks U = U1 U2, which aux alone sweeps, at r' <= 2, |r''| <= 2
    original = constants.split_pair_values

    def shifted(rp, rpp):
        r1p, r1pp, r2p, r2pp = original(rp, rpp)
        return r1p, r1pp + 2, r2p, r2pp

    monkeypatch.setattr(constants, "split_pair_values", shifted)
    chain = suites.run("signchain", rmax=2)
    assert len(chain.failures) == 192
    assert {f["identity"] for f in chain.failures} == {"collapse"}
    assert_records_name_their_points(chain)
    aux = suites.run("aux", rmax=2)
    assert_records_name_their_points(aux)
    # the size forms and companion sums read r''_1 as well
    assert Counter(f["identity"] for f in aux.failures) == \
        {"size_forms": 15, "companion_sums": 15, "u_multiplicative": 6}
    broken = {(rp, rpp) for rp in range(3) for rpp in range(-2, 3) for m in (1, -1)
              if constants.u_sign(rp, rpp, m) != constants.u_sign(*shifted(rp, rpp)[:2], m)
              * constants.u_sign(*shifted(rp, rpp)[2:], m)}
    assert {(f["rp"], f["rpp"]) for f in aux.failures
            if f["identity"] == "u_multiplicative"} == broken


def test_params_fails_on_a_constant_character(monkeypatch):
    monkeypatch.setattr(par, "eval_character_on_image", lambda param, image: -1)
    report = suites.run("params", nmax=0)
    # every point but the single n = 0 triple is a bilinearity check
    assert len(report.failures) == report.points_checked - 1 > 0
    assert {f["identity"] for f in report.failures} == {"bilinearity"}
    assert_records_name_their_points(report)


def test_params_fails_on_a_restriction_to_the_other_eigenspace(monkeypatch):
    original = par.restrict
    monkeypatch.setattr(par, "restrict", lambda cells, h_sign: original(cells, -h_sign))
    report = suites.run("params")
    assert {f["identity"] for f in report.failures} == {"restriction"}
    assert_records_name_their_points(report)
    # a point passes exactly when its two factors have the same partitions
    assert len(report.failures) == 204
    assert all((f["lam_plus1"], f["lam_minus1"]) != (f["lam_plus2"], f["lam_minus2"])
               for f in report.failures)


@pytest.mark.parametrize("name, given, error", [
    ("counting", {"q": (5, 1000000007)}, "q capped at 101"),
    ("aux", {"rmax": 1000}, "rmax capped at 60"),
])
def test_a_value_above_its_cap_is_refused_with_an_incomplete_report(name, given, error,
                                                                    monkeypatch):
    def no_field(self, q):
        raise AssertionError(f"ResidueParam({q}) was built for a refused sweep")

    monkeypatch.setattr(ResidueParam, "__init__", no_field)
    report = suites.run(name, **given)
    assert report.incomplete and not report.passed
    assert report.points_checked == 0 and report.failures == []
    assert report.parameters == {"error": error}


@pytest.mark.parametrize("kind, builder", [("params", suites.enumerate_params_report),
                                           ("descent", suites.enumerate_descent_report)])
def test_an_enumeration_above_its_cap_returns_an_incomplete_payload(kind, builder):
    noun = "parameter" if kind == "params" else kind
    assert builder(suites.ENUM_N_CAP + 1) == {
        "kind": kind, "n": suites.ENUM_N_CAP + 1, "incomplete": True,
        "error": f"{noun} enumeration capped at n = {suites.ENUM_N_CAP}"}
