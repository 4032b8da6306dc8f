"""The suite runner, with stub criteria and a fake clock: it numbers the ten
criteria, applies the time limits of criteria 1 (60 s) and 4 (120 s), and
joins the record lines in order. No real criterion runs here."""

import pytest

from ergodic_vc import suite

CRITERIA = [
    "_criterion_sauer",
    "_criterion_join_witness",
    "_criterion_dimensions",
    "_criterion_ks",
    "_criterion_counterexample",
    "_criterion_straightening",
    "_criterion_induced",
    "_criterion_graph_split",
    "_criterion_dp_oracle",
    "_criterion_determinism",
]


def _stub_run(monkeypatch, seconds):
    """run_suite(workers=2) where criterion i (1-based) passes, writes lines
    "i,a" and "i,b" and takes seconds[i - 1] on the clock."""
    for i, name in enumerate(CRITERIA, 1):
        lines = [f"{i},a", f"{i},b"]
        monkeypatch.setattr(suite, name, lambda *args, lines=lines: (True, "stub", lines))
    readings = iter([t for s in seconds for t in (1000.0, 1000.0 + s)])
    monkeypatch.setattr(suite, "perf_counter", lambda: next(readings))
    return suite.run_suite(workers=2)


@pytest.mark.parametrize(
    "c1, c4, passed",
    [(60, 120, False), (59.9, 119.9, True)],
    ids=["at-limit", "under-limit"],
)
def test_runner_numbers_times_and_caps_the_criteria(monkeypatch, c1, c4, passed):
    seconds = [c1, 500, 500, c4, 500, 500, 500, 500, 500, 500]
    report = _stub_run(monkeypatch, seconds)
    assert [r.number for r in report.results] == list(range(1, 11))
    assert [r.seconds for r in report.results] == pytest.approx(seconds)
    assert [r.passed for r in report.results] == [passed, True, True, passed] + [True] * 6
    assert report.all_passed is passed
    # A criterion that failed on its time limit alone says so in its detail.
    c1_detail, c4_detail = [f"stub, over the {limit} s limit" if not passed else "stub" for limit in (60, 120)]
    details = [c1_detail, "stub", "stub", c4_detail] + ["stub"] * 6
    assert [r.detail for r in report.results] == details
    mark = "PASS" if passed else "FAIL"
    assert report.table().splitlines()[0] == f"{mark}   1  shatter-vs-binomial-bound: {c1_detail} ({c1:.1f}s)"
    expected = ["# suite exact records v1"] + [f"{i},{x}" for i in range(1, 11) for x in "ab"]
    assert report.csv_text == "\n".join(expected) + "\n"
    assert report.workers == 2


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_raises_before_any_criterion(monkeypatch, workers):
    def no_criterion(*args):
        raise AssertionError("a criterion ran")

    for name in CRITERIA:
        monkeypatch.setattr(suite, name, no_criterion)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        suite.run_suite(workers=workers)
