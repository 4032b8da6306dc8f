"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Criteria 1..9 assert on a single shared suite run (each criterion checks its
own tolerances, the runner applies the runtime caps, and each carries a
one-line detail).
Criterion 10 runs the full suite twice more and byte-compares the exact CSV
artifact across repeated runs and across 1 vs 8 workers.
"""

import hashlib

import pytest

from ergodic_vc.suite import run_suite

# sha256 of the suite CSV; any change to an exact result changes it.
SUITE_CSV_SHA256 = "7fc7eb9b409ca0eace57269e501747faf4965de68f2222246ef841fb5a0c4c19"


@pytest.fixture(scope="session")
def suite():
    return run_suite(workers=1)


def _check(suite, number):
    result = suite.results[number - 1]
    line = f"{'PASS' if result.passed else 'FAIL'} {number} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line
    return result


def test_criterion_01_shatter_within_binomial_bound(suite):
    result = _check(suite, 1)
    assert result.seconds < 60


def test_criterion_02_full_join_witnesses_shattered(suite):
    _check(suite, 2)


def test_criterion_03_known_dimensions_exact(suite):
    _check(suite, 3)


def test_criterion_04_ks_decay_iid_and_rotation(suite):
    result = _check(suite, 4)
    assert result.seconds < 120


def test_criterion_05_orbit_atom_deviation_pinned_at_one(suite):
    _check(suite, 5)


def test_criterion_06_straightening_exact_and_doubling_rate(suite):
    _check(suite, 6)


def test_criterion_07_first_return_identity_and_pacing(suite):
    _check(suite, 7)


def test_criterion_08_sandwich_triangle_and_rate_bound(suite):
    _check(suite, 8)


def test_criterion_09_dp_matches_brute_force(suite):
    _check(suite, 9)


def test_criterion_10_suite_byte_determinism(suite):
    _check(suite, 10)
    again = run_suite(workers=1)
    parallel = run_suite(workers=8)
    assert suite.csv_text == again.csv_text, "repeated serial runs differ"
    assert suite.csv_text == parallel.csv_text, "1 vs 8 workers differ"
    print("PASS 10 full-artifact bytes identical across runs and worker counts")


def test_suite_csv_matches_pinned_digest(suite):
    assert hashlib.sha256(suite.csv_text.encode()).hexdigest() == SUITE_CSV_SHA256
