"""Each sweep must fail on a planted wrong formula (non-vacuity)."""

from endosign import constants, suites


def test_transfer_fails_on_a_flipped_transfer_factor_sign(monkeypatch):
    original = constants.transfer_factor_sign
    monkeypatch.setattr(constants, "transfer_factor_sign",
                        lambda *args: -original(*args))
    report = suites.verify_transfer_factorization(qs=(5,), rrmax=0)
    assert report.points_checked > 0
    assert len(report.failures) == report.points_checked
    assert not report.passed


def test_descent_fails_on_an_off_by_one_split_size(monkeypatch):
    original = constants.split_sizes

    def off_by_one(rp, rpp, Np, Npp):
        n1, n2 = original(rp, rpp, Np, Npp)
        return n1 + 1, n2

    monkeypatch.setattr(suites, "split_sizes", off_by_one)
    report = suites.verify_descent(beta_max=0)
    assert {f["identity"] for f in report.failures} == {"sector_sum"}
    assert not report.passed


def test_constprod_fails_on_the_swapped_two_power_reading(monkeypatch):
    original = constants.collapse_and_product_constants

    def swapped(*args, alt_two_power=False):
        return original(*args, alt_two_power=not alt_two_power)

    monkeypatch.setattr(constants, "collapse_and_product_constants", swapped)
    report = suites.verify_product_identity(qs=(5,), rmax=1)
    assert len(report.failures) == report.points_checked > 0
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: pass"]


def test_constprod_alternate_reading_can_fail_too(monkeypatch):
    original = constants.even_case_transfer_constant
    monkeypatch.setattr(constants, "even_case_transfer_constant",
                        lambda *args: -original(*args))
    report = suites.verify_product_identity(qs=(5,), rmax=1)
    assert len(report.failures) == report.points_checked > 0
    assert report.notes == ["failures re-evaluated under the alternate two-power reading: fail"]
