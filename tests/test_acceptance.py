"""Acceptance suite: every exit criterion at its stated bound.

Each test runs one full sweep exactly at the contracted parameters, asserts
zero failures with exact arithmetic, enforces the runtime budget, and
prints one pass/fail line (visible with pytest -s or on failure).
"""

import time

from endosign import suites


def _run(tag, budget_s, name, **params):
    start = time.monotonic()
    report = suites.run(name, **params)
    elapsed = time.monotonic() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} - {report.points_checked} points, "
          f"{len(report.failures)} failures, {elapsed:.2f}s (budget {budget_s}s)")
    assert report.failures == [], report.failures[:5]
    assert report.passed
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded {budget_s}s"
    return report


def test_acceptance_01_aux_identities():
    # all four auxiliary identities, r' in [0, 30], r'' in [-30, 30], both
    # values of the character at -1, exact equality
    report = _run("1 (aux identities)", 5, "aux", rmax=30)
    assert report.points_checked == 31 * 61


def test_acceptance_02_splitting():
    # size-sum identity and swap symmetry, N', N'' up to 10, exact
    report = _run("2 (splitting)", 5, "split", rmax=30, nmax=10)
    assert report.points_checked == 31 * 61 * 121


def test_acceptance_03_kappa_sums():
    # transversal character sums, R - r up to 6, both r = 0 and r > 0, all e
    _run("3 (kappa sums)", 10, "kappasum", max_rr=6)


def test_acceptance_04_counting():
    # fiber sizes equal the closed form on the image, family count formula,
    # q in {5, 7, 13} with pair-slot depth 2 (13 capped to depth 1 for the
    # fiber part), including the worked values 4 and {2, 1}
    _run("4 (counting)", 120, "counting", q=(5, 7, 13), t2max=2)


def test_acceptance_05_product_identity():
    # the product-formula constant identity over all sign and class data,
    # q in {5, 7, 13}, shapes up to 6, both degeneracy values, exact
    report = _run("5 (product identity)", 60, "constprod", q=(5, 7, 13), rmax=6)
    assert not report.notes  # no failures, so no alternate-reading rerun


def test_acceptance_06_sign_chain():
    # chain = (-1)^n U, and the nine-constant product collapses
    # to 1, for r' <= 8, |r''| <= 8, all sign parameters
    _run("6 (sign chain)", 5, "signchain", rmax=8)


def test_acceptance_07_transfer_factorization():
    # per-factor route equals the closed form, q in {5, 7}, R - r <= 4,
    # all assignment vectors, sign vectors, block vectors and pairings
    _run("7 (transfer factorization)", 120, "transfer", q=(5, 7), rrmax=4)


def test_acceptance_08_weyl_oracle():
    # class sizes against brute-force signed-permutation enumeration at
    # N <= 4 with total 2^N N!, plus the symmetric-group analogue
    _run("8 (weyl oracle)", 30, "weyl", nmax=4)


def test_acceptance_09_descent():
    # sign-character relation on all class splittings with |beta| <= 8,
    # unique-split recovery against a full scan, sector sums
    _run("9 (descent)", 30, "descent", beta_max=8)


def test_acceptance_10_parameter_algebra():
    # restriction of assembled triples to their factors, character bilinearity
    _run("10 (parameter algebra)", 5, "params", nmax=3)
