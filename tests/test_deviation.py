"""Uniform deviations, KS statistic, exact k-interval maximization, traces."""

import json
import os
from bisect import bisect_left
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ergodic_vc
from ergodic_vc import (
    AtomSet,
    InsufficientDataError,
    IntervalUnion,
    ResourceLimitError,
    SamplePath,
    SetFamily,
    cellwise_deviation_sum,
    deviation_trace,
    discrepancy,
    doubling_spec,
    dyadic_class,
    generate,
    golden_alpha_fixed,
    high_discrepancy_cells,
    iid_spec,
    iu,
    join,
    ks_statistic,
    markov_spec,
    max_deviation_k_intervals,
    rotation_spec,
    subset_indexed_sets,
    trajectory_family,
    uniform_deviation,
)
from ergodic_vc.deviation import _sup_deviation, fan_out
from ergodic_vc.families import half_interval_class as _half
from ergodic_vc.intervals import count_in
from ergodic_vc.oracles import brute_k_interval_sup

F = Fraction


def path_from(values):
    return SamplePath.from_values([F(v) for v in values], precision=64)


# -- single-set discrepancy and budgeted suprema -------------------------------------


def test_discrepancy_hand_computed():
    path = path_from(["1/8", "3/8", "5/8", "7/8"])
    assert discrepancy(iu("[0,1/2)"), path, 4) == 0
    assert discrepancy(iu("[0,1/2)"), path, 3) == F(1, 6)
    assert discrepancy(iu("[0,1/4)"), path, 4) == 0


def test_uniform_deviation_first_argmax_and_budget():
    fam = dyadic_class(2)
    path = path_from(["1/8", "1/8", "1/8", "9/16"])
    res = uniform_deviation(fam, fam.size, path, 4)
    assert res.value == F(3, 4) - F(1, 4)
    assert res.argmax == 2
    assert res.budget == fam.size


def test_uniform_deviation_zero_budget_is_zero():
    fam = dyadic_class(2)
    path = path_from(["1/8"])
    res = uniform_deviation(fam, 0, path, 1)
    assert res.value == 0 and res.argmax is None and res.budget == 0


def test_uniform_deviation_requires_enough_samples():
    fam = dyadic_class(2)
    path = path_from(["1/8", "5/8"])
    with pytest.raises(InsufficientDataError):
        uniform_deviation(fam, fam.size, path, 3)


def test_uniform_deviation_monotone_in_budget():
    fam = dyadic_class(4)
    path = generate(iid_spec(3), 200)
    values = [uniform_deviation(fam, b, path, 200).value for b in (2, 6, 14, 30)]
    assert values == sorted(values)


# -- compiled scoring rows cached on the family -------------------------------------


def _fresh_dyadic6(upto, path, m):
    res = uniform_deviation(dyadic_class(6), upto, path, m)
    return res.value, res.argmax


def test_row_cache_is_keyed_by_precision():
    fam = dyadic_class(6)
    for precision in (64, 128, 64):
        path = generate(iid_spec(4, precision), 300)
        res = uniform_deviation(fam, fam.size, path, 300)
        assert (res.value, res.argmax) == _fresh_dyadic6(126, path, 300)


def test_row_cache_grows_to_the_largest_budget_and_serves_smaller_ones():
    fam = dyadic_class(6)
    path = generate(iid_spec(6), 500)
    for upto in (10, 126, 5):
        res = uniform_deviation(fam, upto, path, 500)
        assert res.budget == upto
        assert (res.value, res.argmax) == _fresh_dyadic6(upto, path, 500)


def _reference_sup_deviation(members, sorted_fixed, precision):
    """The per-threshold dict loop that scored members before the table:
    (value, first argmax) over rows (thresholds, measure num, measure den)."""
    rows = [(c.thresholds(precision), c.measure.numerator, c.measure.denominator) for c in members]
    m = len(sorted_fixed)
    ranks = {}
    best, best_den, argmax = 0, 1, None
    for i, (thresholds, num, den) in enumerate(rows):
        hits, odd = 0, False
        for t in thresholds:
            r = ranks.get(t)
            if r is None:
                r = ranks[t] = bisect_left(sorted_fixed, t)
            hits += r if odd else -r
            odd = not odd
        gap = abs(hits * den - num * m)
        if gap * best_den > best * den or argmax is None:
            best, best_den, argmax = gap, den, i
    return F(best, m * best_den), argmax


KERNEL_PRECISION = 64


@st.composite
def scored_family_and_path(draw):
    """Mixed IntervalUnion/AtomSet members (repeated, empty and tied ones)
    and a path whose points repeat and sit on and next to the thresholds."""
    scale = 1 << KERNEL_PRECISION
    unions = []
    for _ in range(draw(st.integers(1, 4))):
        den = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
        ends = sorted(draw(st.sets(st.integers(0, den), max_size=6)))
        unions.append(IntervalUnion.from_ends(den, ends[: len(ends) // 2 * 2]))
    near = sorted({n for u in unions for t in u.thresholds(KERNEL_PRECISION) for n in (t - 1, t) if 0 <= n < scale})
    pool = st.one_of(st.sampled_from(near), st.integers(0, scale - 1)) if near else st.integers(0, scale - 1)
    base = unions + [
        AtomSet(draw(st.lists(pool, max_size=4)), KERNEL_PRECISION) for _ in range(draw(st.integers(0, 2)))
    ]
    members = [draw(st.sampled_from(base)) for _ in range(draw(st.integers(0, 10)))]
    atoms = [n for c in base if isinstance(c, AtomSet) for n in c.fixed]
    points = draw(st.lists(st.one_of(pool, st.sampled_from(atoms)) if atoms else pool, min_size=1, max_size=30))
    path = SamplePath(iid_spec(0, KERNEL_PRECISION), KERNEL_PRECISION, tuple(points))
    budgets = draw(st.lists(st.integers(0, len(members)), min_size=1, max_size=4))
    return members, path, draw(st.integers(1, len(points))), budgets


@settings(max_examples=200, deadline=None)
@given(scored_family_and_path())
@example((
    [iu("[0,1/3) u [1/2,2/3)"), iu("[0,1/3) u [1/2,2/3)"), iu(""), AtomSet([], 64), iu("[1/3,1/2)")],
    SamplePath(iid_spec(0, 64), 64, (0, 0, (1 << 64) // 2, (1 << 64) // 3 + 1)),
    4,
    [5, 1],
))
def test_scoring_table_matches_the_dict_loop(case):
    """Every budget, asked in any order and then 0..size on the grown table
    and on its heads, scores as the reference loop: equal (value, argmax)."""
    members, path, m, budgets = case
    fam = SetFamily.of("mixed", members)
    prefix = path.sorted_fixed(m)
    for upto in budgets + list(range(len(members) + 1)):
        expected = _reference_sup_deviation(members[:upto], prefix, KERNEL_PRECISION)
        res = uniform_deviation(fam, upto, path, m)
        assert (res.value, res.argmax) == expected
        table = fam.rows(len(members), KERNEL_PRECISION)
        assert _sup_deviation(table.head(upto), prefix, upto) == expected


def test_atom_thresholds_count_like_membership():
    precision = 128
    alpha, x0 = golden_alpha_fixed(precision), 12345
    member = trajectory_family(alpha, x0, precision, window=2).member(3)
    # Orbit points, some twice, among iid points: the atoms are hit.
    points = list(generate(rotation_spec(0, alpha, x0, precision), 20).fixed)
    points += points[:5] + list(generate(iid_spec(1), 50).fixed)
    hits = count_in(member.thresholds(precision), sorted(points))
    assert hits == sum(F(n, 1 << precision) in member for n in points) > 0


def test_atom_precision_mismatch_raises_through_uniform_deviation():
    fam = SetFamily.of("atoms", [AtomSet([1, 2], precision=64)])
    with pytest.raises(ValueError, match="precision mismatch"):
        uniform_deviation(fam, 1, generate(iid_spec(0, 128), 10), 10)


# -- KS statistic ---------------------------------------------------------------


def test_ks_hand_computed():
    path = path_from(["1/4", "1/2", "3/4", "0"])
    assert ks_statistic(path, 4) == F(1, 4)
    assert ks_statistic(path, 1) == F(3, 4)


def _two_product_ks(path, m):
    """max_i max(up_i, down_i) with both terms multiplied out per point: the
    reference for ``ks_statistic``."""
    sorted_fixed = path.sorted_fixed(m)
    scale = 1 << path.precision
    best = 0
    for i, n in enumerate(sorted_fixed, start=1):
        up = i * scale - n * m
        down = n * m - (i - 1) * scale
        if up > best:
            best = up
        if down > best:
            best = down
    return F(best, m * scale)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=20))
@example([32])  # the single point 1/2: up_1 = down_1 = 1/2
def test_ks_matches_the_two_product_reference(numerators):
    path = path_from([F(n, 64) for n in numerators])
    for m in range(1, len(numerators) + 1):
        assert ks_statistic(path, m) == _two_product_ks(path, m)


def test_ks_dominates_half_interval_family_sup():
    path = generate(iid_spec(7), 400)
    ks = ks_statistic(path, 400)
    fam = _half()
    assert uniform_deviation(fam, 256, path, 400).value <= ks


def test_frozen_golden_rotation_ks_decay():
    path = generate(rotation_spec(seed=9), 10_000)
    v = ks_statistic(path, 10_000)
    assert float(v) == 0.0002567676941102143
    assert v <= F(1, 100)


def test_frozen_iid_seed0_ks_decay():
    path = generate(iid_spec(0), 10_000)
    assert float(ks_statistic(path, 100)) == 0.07995321513434066
    assert float(ks_statistic(path, 10_000)) == 0.00584180339632713


def test_frozen_dyadic_deviation_seed0():
    fam = dyadic_class(4)
    path = generate(iid_spec(0), 1000)
    res = uniform_deviation(fam, fam.size, path, 1000)
    assert res.value == F(29, 1000)
    assert res.argmax == 12


# -- exact k-interval suprema vs brute force -----------------------------------------


def test_k_interval_hand_computed_limit_vs_attained():
    path = path_from(["1/2"])
    res = max_deviation_k_intervals(path, 1, 1)
    assert res.value == 1
    assert not res.attained
    assert res.attained_value == F(1, 2)


def test_frozen_k_interval_instance():
    path = generate(iid_spec(0), 100)
    res = max_deviation_k_intervals(path, 100, 2)
    assert float(res.value) == 0.1643396258293089
    assert float(res.attained_value) == 0.14433962582930887
    assert res.value - res.attained_value == F(1, 50)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 2))
def test_k_interval_sup_matches_brute(seed, m, k):
    path = generate(iid_spec(seed), m)
    res = max_deviation_k_intervals(path, m, k)
    assert res.value == brute_k_interval_sup(path, m, k)
    assert res.attained_value <= res.value <= 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=6), st.data(), st.integers(1, 3))
def test_k_interval_sup_matches_brute_on_repeated_points(eighths, data, k):
    # iid points at 128 bits never repeat or hit 0; a coarse grid gives atoms
    # with counts above 1 and an empty first gap.
    path = path_from([F(v, 8) for v in eighths])
    m = data.draw(st.integers(1, path.length))
    res = max_deviation_k_intervals(path, m, k)
    assert res.value == brute_k_interval_sup(path, m, k)
    assert res.attained_value <= res.value <= 1


def _combinations_k_interval_sup(path, m, k):
    """The oracle's first form: every t-combination of element windows, overlapping ones dropped."""
    sorted_fixed = path.sorted_fixed(m)
    scale = 1 << path.precision
    values = []
    counts = []
    for n in sorted_fixed:
        if values and values[-1] == n:
            counts[-1] += 1
        else:
            values.append(n)
            counts.append(1)
    freq = []  # scaled by m * scale
    meas = []
    bounds = [0] + values + [scale]
    for i, v in enumerate(values):
        freq.append(0)
        meas.append(m * (v - bounds[i]))
        freq.append(counts[i] * scale)
        meas.append(0)
    freq.append(0)
    meas.append(m * (scale - (values[-1] if values else 0)))
    L = len(freq)
    pf = [0]
    pm = [0]
    for f, g in zip(freq, meas):
        pf.append(pf[-1] + f)
        pm.append(pm[-1] + g)

    windows = [(a, b) for a in range(L) for b in range(a + 1, L + 1)]
    best = 0

    def value_of(selection) -> int:
        f = sum(pf[b] - pf[a] for a, b in selection)
        g = sum(pm[b] - pm[a] for a, b in selection)
        return abs(f - g)

    for t in range(1, k + 1):
        for combo in combinations(windows, t):
            ordered = sorted(combo)
            if any(x[1] > y[0] for x, y in zip(ordered, ordered[1:])):
                continue
            v = value_of(ordered)
            if v > best:
                best = v
    return Fraction(best, m * scale)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=5), st.data(), st.integers(1, 3))
def test_cut_point_oracle_matches_combinations_form(eighths, data, k):
    # Points on a coarse grid repeat and touch 0, so atoms carry counts above 1.
    path = path_from([F(v, 8) for v in eighths])
    m = data.draw(st.integers(1, path.length))
    assert brute_k_interval_sup(path, m, k) == _combinations_k_interval_sup(path, m, k)


def _max_k_segments(weights, k):
    """Max total of at most k disjoint nonempty runs (empty choice = 0).

    out[r] is the best total of at most r runs so far, and inn[r] the best
    with at most r runs, the last ending at the current weight. Looping r
    downward reads out[r - 1] from before this weight, so a new run starts
    strictly after the runs it follows.
    """
    out = [0] * (k + 1)
    inn = [0] * (k + 1)
    down = range(k, 0, -1)
    for w in weights:
        for r in down:
            a, b = inn[r], out[r - 1]
            a = (a if a > b else b) + w
            inn[r] = a
            if a > out[r]:
                out[r] = a
    return out[k]


def _element_k_interval(path, m, k):
    """(value, attained, attained_value) by four element-level runs of ``_max_k_segments``.

    The DP's first form: runs of the 2r+1 weights [gap_0, atom_1, gap_1, ..,
    atom_r, gap_r] and of their negatives give the supremum, and runs of
    the r+1 blocks [gap_0, atom_1 + gap_1, ..] and of their negatives give
    the attained optimum.
    """
    scale = 1 << path.precision
    weights = []
    prev = 0
    for n in path.sorted_fixed(m):
        if weights and n == prev:
            weights[-1] += scale
        else:
            weights += (m * (prev - n), scale)
            prev = n
    weights.append(m * (prev - scale))
    sup_best = max(_max_k_segments(weights, k), _max_k_segments([-w for w in weights], k))
    attain = [weights[0]] + [a + g for a, g in zip(weights[1::2], weights[2::2])]
    attained_best = max(_max_k_segments(attain, k), _max_k_segments([-w for w in attain], k))
    denom = m * scale
    return F(sup_best, denom), attained_best == sup_best, F(attained_best, denom)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=30),
    st.data(),
    st.integers(1, 4),
    st.sampled_from([64, 128]),
)
def test_block_dp_matches_element_reference(eighths, data, k, precision):
    # Points on eighths repeat and include 0, so atoms carry counts above 1
    # and the first gap can be empty.
    path = SamplePath.from_values([F(v, 8) for v in eighths], precision=precision)
    m = data.draw(st.integers(1, path.length))
    res = max_deviation_k_intervals(path, m, k)
    assert (res.value, res.attained, res.attained_value) == _element_k_interval(path, m, k)


def _exhaustive_k_segments(weights, k):
    """Best total over every choice of at most k disjoint nonempty runs, by enumeration."""
    prefix = [0, *accumulate(weights)]
    best = 0
    for r in range(1, k + 1):
        # Cut points c_0 <= c_1 <= ... give runs [c_0, c_1), [c_2, c_3), ...;
        # touching runs are allowed, empty ones are not.
        for cuts in combinations_with_replacement(range(len(weights) + 1), 2 * r):
            runs = list(zip(cuts[::2], cuts[1::2]))
            if all(a < b for a, b in runs):
                best = max(best, sum(prefix[b] - prefix[a] for a, b in runs))
    return best


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-20, 20), max_size=10),
        st.lists(st.integers(-20, 0), max_size=10),
        st.lists(st.sampled_from([-3, 0, 2]), max_size=10),
    ),
    st.integers(1, 3),
)
def test_max_k_segments_matches_exhaustive_enumeration(weights, k):
    assert _max_k_segments(weights, k) == _exhaustive_k_segments(weights, k)


def test_k_interval_cost_cap():
    path = generate(iid_spec(1), 10)
    with pytest.raises(ResourceLimitError):
        max_deviation_k_intervals(path, 10, 2, cost_cap=10)


# -- join-cell localization -------------------------------------------------------


def test_cellwise_sum_majorizes_whole_set_deviation():
    sets = subset_indexed_sets(2)
    jp = join(sets)
    path = generate(iid_spec(5), 300)
    c = iu("[0,1/3) u [2/3,5/6)")
    whole = discrepancy(c, path, 300)
    assert cellwise_deviation_sum(jp, c, path, 300) >= whole


def test_high_discrepancy_cells_flags_are_consistent():
    sets = subset_indexed_sets(2)
    jp = join(sets)
    path = generate(iid_spec(5), 300)
    c = iu("[0,1/3) u [2/3,5/6)")
    eta = F(1, 50)
    over = high_discrepancy_cells(jp, c, path, 300, eta)
    assert over.measure == over.union.measure
    sorted_fixed = path.sorted_fixed(300)
    for mask, cell in over.flagged:
        piece = cell.intersect(c)
        hits = count_in(piece.thresholds(path.precision), sorted_fixed)
        dev = abs(F(hits, 300) - piece.measure)
        assert dev > eta / 2 * cell.measure


# -- seeded trace bundles -------------------------------------------------------


def test_trace_bundle_schema_and_madian_sorted_merge():
    spec = iid_spec(0)
    bundle = deviation_trace(dyadic_class(3), 14, spec, [10, 100], [3, 1, 2], workers=1)
    seeds = [t.seed for t in bundle.per_seed]
    assert seeds == [3, 1, 2]
    rows = bundle.csv_rows()
    assert len(rows) == 6
    first = rows[0].split(",")
    assert len(first) == 6
    assert int(first[0]) == 3 and int(first[1]) == 10
    assert len(bundle.median_values) == 2
    assert bundle.median_values[1] <= bundle.median_values[0]


@pytest.mark.parametrize(
    "m_grid, seeds",
    [([10, 100], []), ([], [0]), ([0, 10], [0]), ([10, 10], [0])],
    ids=["no-seeds", "empty-grid", "m-zero", "not-ascending"],
)
def test_trace_rejects_bad_seeds_and_grids_before_any_job(m_grid, seeds, monkeypatch):
    def no_jobs(*args):
        raise AssertionError("a job started")

    monkeypatch.setattr("ergodic_vc.deviation.fan_out", no_jobs)
    with pytest.raises(ValueError, match="need seeds, and an m grid .* strictly ascending and >= 1"):
        deviation_trace(dyadic_class(3), 14, iid_spec(0), m_grid, seeds)


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_raises(workers, monkeypatch):
    """The library rejects what the CLI rejects with exit 2, and
    deviation_trace does so before it compiles the family's rows."""
    with pytest.raises(ValueError, match="workers must be >= 1"):
        fan_out(abs, [1, 2], workers)

    def no_rows(*args):
        raise AssertionError("rows compiled")

    monkeypatch.setattr(SetFamily, "rows", no_rows)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        deviation_trace(dyadic_class(3), 14, iid_spec(0), [10], [0], workers=workers)


def test_trace_bundle_parallel_equals_serial():
    """Each job pickles its spec, Markov cells included, into the pool."""
    markov = markov_spec(
        [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"], ["1/4", "1/4", "1/2"]],
        ["[0,1/3)", "[1/3,2/3)", "[2/3,1)"],
        0,
    )
    for spec in (iid_spec(0), rotation_spec(seed=0, x0_fixed=17), doubling_spec(0, 200), markov):
        serial = deviation_trace(dyadic_class(3), 14, spec, [10, 100], list(range(6)), workers=1)
        parallel = deviation_trace(dyadic_class(3), 14, spec, [10, 100], list(range(6)), workers=4)
        assert serial.csv_rows() == parallel.csv_rows(), spec.kind


SPAWNED_TRACE = """
import json, multiprocessing
from ergodic_vc import deviation_trace, dyadic_class, iid_spec
multiprocessing.set_start_method("spawn")
runs = [deviation_trace(dyadic_class(4), 30, iid_spec(0), [10, 100], range(4), workers=w) for w in (1, 2)]
print(json.dumps([run.csv_rows() for run in runs]))
"""


def test_trace_pool_under_spawn_equals_serial():
    """Workers started by "spawn" (no inherited state; forkserver is the
    Linux default from Python 3.14) write the serial rows."""
    src = str(Path(ergodic_vc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SPAWNED_TRACE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    serial, spawned = json.loads(proc.stdout)
    assert len(serial) == 8 and spawned == serial


def test_trace_builds_each_member_once_across_seeds():
    dyadic = dyadic_class(3)
    calls = []

    def member_fn(i):
        calls.append(i)
        return dyadic.member(i)

    fam = SetFamily("counted", member_fn, dyadic.size)
    bundle = deviation_trace(fam, 14, iid_spec(0), [10, 100], [0, 1, 2], workers=1)
    assert sorted(calls) == list(range(14))
    expected = deviation_trace(dyadic_class(3), 14, iid_spec(0), [10, 100], [0, 1, 2])
    assert bundle.csv_rows() == expected.csv_rows()


def test_trace_checks_budget_and_precision_before_any_job(monkeypatch):
    def no_jobs(*args):
        raise AssertionError("a job started")

    monkeypatch.setattr("ergodic_vc.deviation.fan_out", no_jobs)
    with pytest.raises(ValueError, match="exceeds family"):
        deviation_trace(dyadic_class(3), 15, iid_spec(0), [10], [0])
    orbit = trajectory_family(golden_alpha_fixed(128), 0, 128)
    with pytest.raises(ValueError, match="precision"):
        deviation_trace(orbit, 4, iid_spec(0, precision=64), [10], [0])
