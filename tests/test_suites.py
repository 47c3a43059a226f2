"""Each sweep must fail on every planted fault of tests/faults.py, and refuse a value above its cap."""

import inspect
import itertools
import json
from collections import Counter

import pytest

from endosign import constants, suites
from endosign import families as fam
from endosign.cli import main
from endosign.localfield import ResidueParam, legendre

import faults
from test_source_guards import SMALL_SWEEPS


def _flags(given):
    # the CLI flag of a parameter is "--" + its key with "-" for "_"
    return [arg for key, value in given.items()
            for arg in ("--" + key.replace("_", "-"),
                        ",".join(map(str, value)) if key == "q" else str(value))]


def _entries(monkeypatch, name):
    """The keyword arguments of each entry into the suite's generator, as run() makes them."""
    points, specs = suites.SUITES[name]
    entries = []

    def entered(**values):
        entries.append(values)
        return points(**values)

    monkeypatch.setitem(suites.SUITES, name, (entered, specs))
    return entries


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
    assert main(["verify", name, *_flags(given)]) == 0

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
    counted(fam, "eta_of_L2", lambda comp2, shape, *rest: ("eta_of_L2", shape.b_switch))
    # a split's key: the vector and the pairing; no two shapes of B = 1
    # share a vector's length
    counted(fam, "gamma_L_split", lambda gamma, pair: (
        "gamma_L_split", gamma.low, gamma.high, pair.l1, pair.l2))
    # a row's key: the shape, the vector and the pairings it spans
    counted(constants, "factorwise_gamma_factor", lambda shape, gamma, pairs, *rest: (
        "factorwise_gamma_factor", shape.rp, shape.rpp, gamma.low, gamma.high, len(pairs)))
    counted(constants, "transfer_factor_sign", lambda shape, gamma, pairs, *rest: (
        "transfer_factor_sign", shape.rp, shape.rpp, gamma.low, gamma.high, len(pairs)))
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
    # the per-factor row and the closed rows of both scd2 once per vector,
    # each over all the shape's pairings
    fw_rows = {("factorwise_gamma_factor", shape.rp, shape.rpp, gamma.low, gamma.high,
                len(fam.enumerate_L(shape))): 1 for shape, gs in vectors.items() for gamma in gs}
    cl_rows = {("transfer_factor_sign", *key[1:]): 1 for key in fw_rows}
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
    # gamma split once per (vector, pairing) and eta[L2, gamma] read at both
    # scd2 from one call per (vector, pairing) where B = 1, and neither where
    # B = 0
    splits = {("gamma_L_split", gamma.low, gamma.high, pair.l1, pair.l2): 1
              for shape, gs in vectors.items() if shape.b_switch
              for gamma in gs for pair in fam.enumerate_L(shape)}
    assert {key: n for key, n in calls.items() if key[0] == "gamma_L_split"} == splits
    assert calls["eta_of_L2", 1] == len(splits) > 0
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


def _per_preimage_tallies(shape, pairs, choices, field):
    """reassembly_tallies with each (family, c1, c2, pairing) reassembled on its own."""
    tallies = {taus: [Counter() for _ in pairs] for taus in itertools.product((1, -1), (1, -1))}
    for family in fam.enumerate_transversal_families(shape, choices):
        side1, side2 = faults.family_sides(family, shape, field)
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
    _plant(monkeypatch, faults.FAULTS["repeated_first_entry"])
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


def test_counting_rejects_components_that_do_not_match_the_shape(monkeypatch):
    original = fam.family_selections
    for side, change in itertools.product((1, 2), (-1, 1)):
        built = itertools.count(1)

        def misshapen(halves, r, rp_field, _side=side, _change=change, _built=built):
            buckets = original(halves, r, rp_field)
            # per family, side 1 is built first and side 2 second; at q = 5 no
            # two families of a shape share a side's halves, so each builds both
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
    calls = {"family_selections": 0, "reassemble": 0, "enumerate_gamma": 0, "gamma_L_split": 0,
             "eta_of_L2": 0, "fiber_count_check": 0, "fiber_size_prediction": 0, "gather": 0}
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
    # one selection table per (shape, side, distinct halves), which at q = 5,
    # where no two families of a shape share a side's halves, is two per
    # (shape, family); one gather per (shape, pairing), one vector list per
    # (shape, sign target), one split and one eta_of_L2, serving both
    # sgn_cd(w2), per (vector, pairing), one slotwise count per (vector,
    # pairing) and one prediction per (shape, vector); one reassembly per
    # preimage would be 163 calls, one eta_of_L2 per (vector, pairing,
    # sgn_cd(w2)) 246, and one vector list, eta_of_L2, slotwise count and
    # prediction per point 96, 984, 492 and 492.  Each gather maps each
    # distinct joined pair of (tau1, tau2) once: 123 applications, where one
    # per (preimage, pairing) would be 163
    assert calls == {"family_selections": 36, "reassemble": 8, "enumerate_gamma": 12,
                     "gamma_L_split": 123, "eta_of_L2": 123, "fiber_count_check": 123,
                     "fiber_size_prediction": 75, "gather": 123}


@pytest.mark.parametrize("q, t2max, builds", [(5, 1, 36), (7, 2, 364)])
def test_counting_builds_each_side_table_once_and_keeps_none_past_its_shape(q, t2max, builds,
                                                                           monkeypatch):
    original_selections = fam.family_selections
    original_tallies = fam.reassembly_tallies
    alive = {"now": 0}
    built = []  # per shape, (r, halves) -> its table builds

    class Table(dict):
        def __del__(self):
            alive["now"] -= 1

    def counted(halves, r, rp_field):
        built[-1][r, tuple(halves)] += 1
        alive["now"] += 1
        return Table(original_selections(halves, r, rp_field))

    def tallies(shape, pairs, choices, rp_field):
        assert alive["now"] == 0
        built.append(Counter())
        out = original_tallies(shape, pairs, choices, rp_field)
        assert alive["now"] == 0
        # one build per side and distinct halves: G1s with shape.r top signs, G2s with none
        families = list(fam.enumerate_transversal_families(shape, choices))
        assert built[-1] == Counter(
            (r, halves) for k, r in ((0, shape.r), (1, 0))
            for halves in {tuple(pair[k] for pair in family) for family in families})
        return out

    monkeypatch.setattr(fam, "family_selections", counted)
    monkeypatch.setattr(fam, "reassembly_tallies", tallies)
    report = suites.run("counting", q=(q,), t2max=t2max)
    assert report.passed
    assert sum(sum(shape.values()) for shape in built) == builds
    assert alive["now"] == 0


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


def _plant(patcher, fault):
    for module, name, value in fault.plant():
        patcher.setattr(module, name, value)


# The reports of runs with aliases, so that each sweeps once for all its ids.
_SWEPT = {}


def _check(fault, run, monkeypatch, capsys):
    """Sweep run's suite under fault's plant and hold the report to run's expectation."""
    with monkeypatch.context() as patcher:
        entries = _entries(patcher, run.suite)
        _plant(patcher, fault)
        report = _SWEPT.get((fault.name, run.test))
        if report is None:
            report = suites.run(run.suite, **run.bounds)
            assert entries == [suites.parameters(run.suite, run.bounds)]
            if run.aliases:
                _SWEPT[fault.name, run.test] = report
        assert report.points_checked == run.points
        assert Counter(map(run.by, report.failures)) == run.counts
        assert report.passed == (not run.counts)
        # every record names its identity, and no two records are equal
        assert all("identity" in f for f in report.failures)
        records = Counter(json.dumps(f, sort_keys=True) for f in report.failures)
        assert [record for record, count in records.items() if count > 1] == []
        if run.relation:
            assert all(run.relation(f) for f in report.failures)
        if run.notes is not None:
            assert report.notes == run.notes
        if run.reference:
            view, expected = run.reference
            assert view(report.failures) == expected()
        if run.cli:
            capsys.readouterr()
            assert main(["verify", run.suite, *_flags(run.bounds)]) == 1
            assert json.loads(capsys.readouterr().out)["failures"] == report.failures


def _catalogue_test(cases):
    """The test function of the catalogue runs whose test ids share one name.

    cases maps each id's parameter part, or None for a bare id, to its
    (fault, run) pairs; a test checks its runs in order.
    """
    if None in cases:
        def test(monkeypatch, capsys):
            for case in cases[None]:
                _check(*case, monkeypatch, capsys)

        return test

    @pytest.mark.parametrize("runs", list(cases.values()), ids=list(cases))
    def test(runs, monkeypatch, capsys):
        for case in runs:
            _check(*case, monkeypatch, capsys)

    return test


# Each catalogue run is collected as the test its id, and each of its
# aliases, names and checked by _check; ids that share a name are that
# test's parameters.
_BY_NAME = {}
for _fault in faults.FAULTS.values():
    for _run in _fault.runs:
        for _test in (_run.test, *_run.aliases):
            _name, _, _param = _test.partition("[")
            _BY_NAME.setdefault(_name, {}).setdefault(_param[:-1] or None, []).append(
                (_fault, _run))
for _name, _cases in _BY_NAME.items():
    globals()[_name] = _catalogue_test(_cases)


@pytest.mark.parametrize("fault", ["factorwise_u_factor", "transfer_factor_sign"])
def test_transfer_records_of_one_gamma_differ_by_their_block(fault, monkeypatch):
    # the catalogue holds the sweep to the per-point reference; in it, a gamma
    # of one sign target lies in four (beta', beta'', eta) blocks
    _plant(monkeypatch, faults.FAULTS[fault])
    [run] = faults.FAULTS[fault].runs
    failures = run.reference[1]()
    blockless = {json.dumps({**f, "scd1": 0, "scd2": 0, "eta": 0}) for f in failures}
    assert len(blockless) < len(failures)


PROFILES = set(itertools.product((1, -1), repeat=3))


def _profiles(q, rrmax):
    """{m: the Legendre profiles (chi(a), chi(b), chi(a - b)) of every pair slot (a, b)}.

    Over every vector of transfer_window, per m = sgn(-1) of its field.
    """
    seen = {}
    for field, m, shape, _, _, gammas, _ in constants.transfer_window(q, rrmax):
        chi = {v: legendre(v, field) for v in field.units()}
        profiles = seen.setdefault(m, set())
        for vectors in gammas.values():
            for gamma in vectors:
                for j in shape.jhat:
                    a, b = gamma.low[j - 2], gamma.low[j - 1]
                    profiles.add((chi[a], chi[b], legendre(a - b, field)))
    return seen


def test_transfer_meets_every_legendre_profile_at_both_signs_of_minus_one():
    # both transfer routes read a vector only through these profiles, its top
    # signs and m, so the default q list must put every profile under each m
    defaults = suites.parameters("transfer", {})
    assert _profiles(**defaults) == {1: PROFILES, -1: PROFILES}
    # q = 5, the only m = +1 field of (5, 7), never has chi(a) = chi(b) = chi(a - b)
    assert _profiles((5, 7), defaults["rrmax"]) == \
        {1: PROFILES - {(1, 1, 1), (-1, -1, -1)}, -1: PROFILES}
