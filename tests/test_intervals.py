"""Exact interval-union algebra: normalization, measure, DSL round trips."""

import ast
import random
import re
import tracemalloc
from collections import deque
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ergodic_vc import (
    Interval,
    IntervalUnion,
    ParseError,
    SamplePath,
    SetFamily,
    dyadic_class,
    half_interval_class,
    iid_spec,
    induce,
    iu,
    join,
    k_interval_class,
    normalize,
    run_pattern_class,
    subset_indexed_sets,
)
from ergodic_vc.intervals import _kept, _walk, ceil_fixed, count_in, from_pairs, rescaled

F = Fraction


def rat(den_cap=64):
    return st.fractions(min_value=0, max_value=1, max_denominator=den_cap)


def pair_list():
    def to_pairs(raw):
        pairs = []
        for a, b in raw:
            lo, hi = min(a, b), max(a, b)
            if lo < hi:
                pairs.append((lo, hi))
        return pairs

    return st.lists(st.tuples(rat(), rat()), max_size=6).map(to_pairs)


def test_interval_basic():
    iv = Interval(F(1, 4), F(3, 4))
    assert iv.length == F(1, 2)
    assert F(1, 4) in iv and F(1, 2) in iv
    assert F(3, 4) not in iv
    with pytest.raises(ValueError):
        Interval(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        Interval(F(-1, 2), F(1, 2))


def test_normalize_merges_touching_and_overlapping():
    u = normalize([(F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(3, 8), F(5, 8))])
    assert u.parts == (Interval(F(0), F(5, 8)),)
    assert u.measure == F(5, 8)


def test_empty_union_identities():
    empty = IntervalUnion()
    assert empty.is_empty and empty.measure == 0
    assert empty.complement().measure == 1
    assert str(empty) == ""
    assert iu("") == empty


def test_dsl_examples():
    u = iu("[0,1/4) u [1/2, 3/4)")
    assert u.measure == F(1, 2)
    assert str(u) == "[0,1/4) u [1/2,3/4)"
    assert iu(str(u)) == u
    with pytest.raises(ParseError):
        iu("[0,1/4")
    with pytest.raises(ParseError):
        iu("[0,1/4) + [1/2,1)")
    with pytest.raises(ValueError):
        iu("[1/2,1/4)")
    assert iu("[0,1/2)u[1/2,1)") == iu("[0,1)")
    for bad in ("[0,1/0)", "[0,1/2) u", "[0,1/2) uu [1/2,1)"):
        with pytest.raises(ParseError):
            iu(bad)


@given(pair_list())
def test_normalize_idempotent(pairs):
    u = normalize(pairs)
    again = normalize([(p.lo, p.hi) for p in u.parts])
    assert again == u


@given(pair_list())
def test_complement_involution_and_measure(pairs):
    u = normalize(pairs)
    c = u.complement()
    assert c.complement() == u
    assert u.measure + c.measure == 1
    assert u.intersect(c).is_empty


@given(pair_list(), pair_list())
def test_boolean_algebra_measures(pa, pb):
    a, b = normalize(pa), normalize(pb)
    inter = a.intersect(b)
    un = a.union(b)
    sym = a.symmetric_difference(b)
    assert un.measure == a.measure + b.measure - inter.measure
    assert sym.measure == un.measure - inter.measure
    assert inter.measure <= min(a.measure, b.measure)


@given(pair_list(), rat(den_cap=128))
def test_membership_consistent_with_operations(pairs, x):
    if x == 1:
        x = F(0)
    u = normalize(pairs)
    c = u.complement()
    assert (x in u) != (x in c)


# 1/64-grid points mixed with thirds and fifths, 0 and 1 included, so
# operands need a common denominator and results need gcd reduction.
POOL = sorted({F(i, 64) for i in range(65)} | {F(i, 3) for i in range(4)} | {F(i, 5) for i in range(6)})


@st.composite
def raw_pairs(draw):
    """Raw (lo, hi) pairs: random ones, which overlap or are degenerate, plus a touching chain."""
    points = st.sampled_from(POOL)
    pairs = [tuple(sorted(p)) for p in draw(st.lists(st.tuples(points, points), max_size=5))]
    chain = sorted(draw(st.lists(points, max_size=4)))
    return pairs + list(zip(chain, chain[1:]))


def _covered(pairs):
    return lambda x: any(lo <= x < hi for lo, hi in pairs)


@given(raw_pairs(), raw_pairs())
def test_sweep_matches_pointwise_boolean_algebra(pa, pb):
    a, b = normalize(pa), normalize(pb)
    in_a, in_b = _covered(pa), _covered(pb)
    cases = [
        (a, in_a),
        (b, in_b),
        (a.complement(), lambda x: 0 <= x < 1 and not in_a(x)),
        (a.intersect(b), lambda x: in_a(x) and in_b(x)),
        (a.union(b), lambda x: in_a(x) or in_b(x)),
        (a.difference(b), lambda x: in_a(x) and not in_b(x)),
        (a.symmetric_difference(b), lambda x: in_a(x) != in_b(x)),
    ]
    ends = sorted({F(0), F(1)} | {x for pair in pa + pb for x in pair})
    probes = ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])] + [F(-1, 7), F(8, 7)]
    for result, inside in cases:
        parts = result.parts
        assert all(p.hi < q.lo for p, q in zip(parts, parts[1:]))
        assert [x for x in probes if x in result] == [x for x in probes if inside(x)]
        again = iu(str(result))
        assert again == result and hash(again) == hash(result)


@given(raw_pairs(), raw_pairs(), st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60))))
def test_sweep_output_is_what_from_ends_builds(pa, pb, int_pairs):
    """The unchecked sweep constructor gives exactly the validated, reduced fields."""
    a, b = normalize(pa), normalize(pb)
    results = [a, b, ~a, a & b, a | b, a - b, a ^ b]
    results.append(from_pairs(60, [(min(p), max(p)) for p in int_pairs]))
    results += join([a, b, a ^ b]).cells.values()
    for u in results:
        again = IntervalUnion.from_ends(u.den, u.ends)
        assert (again.den, again.ends) == (u.den, u.ends)
        assert type(u.ends) is tuple
        assert gcd(u.den, *u.ends) == 1


def test_equal_sets_from_different_denominators_are_equal():
    half = iu("[0,1/2)")
    for other in (
        normalize([(0, F(1, 4)), (F(1, 4), F(1, 2))]),
        normalize([(0, F(1, 3)), (F(1, 3), F(1, 2))]),
        IntervalUnion.from_ends(6, (0, 3)),
        iu("[0,1/3) u [1/2,1)").union(iu("[1/3,1/2)")).intersect(iu("[0,1/2)")),
    ):
        assert other == half and hash(other) == hash(half)


def test_membership_outside_unit_interval_is_false():
    full = iu("[0,1)")
    assert F(0) in full and F(99, 100) in full
    for x in (F(-1, 2), F(-1, 1 << 70), 1, F(1), F(3, 2), -1, 2):
        assert x not in full


def _on_grid64(pairs):
    return normalize((F(round(lo * 64), 64), F(round(hi * 64), 64)) for lo, hi in pairs)


@given(pair_list(), pair_list())
def test_dyadic_operations_stay_dyadic(pa, pb):
    a, b = _on_grid64(pa), _on_grid64(pb)
    for r in (a.union(b), a.intersect(b), a.difference(b), a.symmetric_difference(b), a.complement()):
        assert r.den & (r.den - 1) == 0


def test_from_ends_rejects_unnormalized_ends():
    for den, ends in ((4, (1, 1)), (4, (0, 2, 2, 3)), (4, (2, 1)), (4, (0, 5)), (4, (0,)), (0, ())):
        with pytest.raises(ValueError):
            IntervalUnion.from_ends(den, ends)


def test_rescaled_reads_ends_over_one_den_and_from_pairs_rebuilds():
    a, b = iu("[0,1/3) u [1/2,2/3)"), iu("[1/4,3/4)")
    den, (ea, eb) = rescaled([a, b], 5)
    assert (den, ea, eb) == (60, (0, 20, 30, 40), (15, 45))
    assert rescaled([], 7) == (7, [])
    assert from_pairs(den, zip(ea[::2], ea[1::2])) == a
    assert from_pairs(den, [(15, 30), (20, 45), (45, 45)]) == b
    for pairs in ([(3, 2)], [(0, 61)], [(-1, 2)]):
        with pytest.raises(ValueError):
            from_pairs(den, pairs)
    with pytest.raises(ValueError):
        from_pairs(0, [])


def _cell_runs(den, pairs):
    """Reference: mark each unit cell [t, t+1) that some pair covers, then read off the runs."""
    covered = [False] * den
    for a, b in pairs:
        covered[a:b] = [True] * (b - a)
    ends = [t for t in range(den + 1) if (t < den and covered[t]) != (t > 0 and covered[t - 1])]
    return IntervalUnion.from_ends(den, ends)


def _bad_message(lo, hi):
    return re.escape(f"interval [{lo}, {hi}) needs 0 <= lo <= hi <= 1")


@st.composite
def int_pairs(draw, den):
    """Shuffled integer pairs over den: overlapping, touching, duplicate and empty ones."""
    ends = st.integers(0, den)
    pairs = [tuple(sorted(p)) for p in draw(st.lists(st.tuples(ends, ends), max_size=8))]
    chain = sorted(draw(st.lists(ends, max_size=5)))
    pairs += zip(chain, chain[1:])
    if draw(st.booleans()):
        pairs.append((0, den))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return draw(st.permutations(pairs))


@given(st.integers(1, 40).flatmap(lambda den: st.tuples(st.just(den), int_pairs(den))))
def test_from_pairs_matches_the_cell_reference(case):
    den, pairs = case
    assert from_pairs(den, iter(pairs)) == _cell_runs(den, pairs)


# Denominators whose lcm is 120, so every mix has a common 120-cell grid.
MIXED_DENS = (1, 2, 3, 4, 5, 6, 8, 12)


@given(
    st.lists(st.sampled_from(MIXED_DENS), min_size=1, max_size=6).flatmap(
        lambda dens: st.tuples(*(int_pairs(d).map(lambda ps, d=d: [(F(a, d), F(b, d)) for a, b in ps]) for d in dens))
    )
)
def test_normalize_matches_the_cell_reference_over_mixed_denominators(groups):
    pairs = [p for group in groups for p in group]
    expected = _cell_runs(120, [(int(lo * 120), int(hi * 120)) for lo, hi in pairs])
    assert normalize(pairs) == expected
    assert normalize(iter(pairs)) == expected


@given(
    st.integers(1, 40).flatmap(lambda den: st.tuples(st.just(den), int_pairs(den))),
    st.data(),
)
def test_a_bad_pair_raises_at_the_first_bad_pair(case, data):
    den, pairs = case
    bad = st.sampled_from([(1, 0), (-1, 0), (0, den + 1), (den, den + 2), (-2, den + 1)])
    first, second = data.draw(bad), data.draw(bad)
    at = data.draw(st.integers(0, len(pairs)))
    pairs = pairs[:at] + [first] + pairs[at:] + [second]
    with pytest.raises(ValueError, match=_bad_message(F(first[0], den), F(first[1], den))):
        from_pairs(den, pairs)
    rational = [(F(a, den), F(b, den)) for a, b in pairs]
    with pytest.raises(ValueError, match=_bad_message(*rational[at])):
        normalize(rational)


def _step_dict_normalize(pairs):
    """The step-dict sweep that ``from_pairs`` replaced, kept as the memory reference."""
    pairs = list(pairs)
    den = lcm(*(x.denominator for pair in pairs for x in pair))
    steps = {}
    for a, b in ((a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)) for a, b in pairs):
        steps[a] = steps.get(a, 0) + 1
        steps[b] = steps.get(b, 0) - 1
    return _kept(den, _walk(den, steps), lambda count: count > 0)


def _peak(fn, arg):
    tracemalloc.start()
    try:
        return fn(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normalize_peak_memory_stays_within_the_step_dict_sweep():
    """65,536 touching unit cells, the shape of a full k = 4 join's parts: two
    sorted int lists must not cost more than the step dict did."""
    n = 1 << 16
    cells = [(F(j, n), F(j + 1, n)) for j in range(n)]
    reference, reference_peak = _peak(_step_dict_normalize, cells)
    union, peak = _peak(normalize, cells)
    assert union == reference == IntervalUnion.from_ends(1, (0, 1))
    assert peak <= reference_peak


def test_only_intervals_reads_the_integer_format():
    """Other modules go through rescaled/from_ends/from_pairs, never .den or .ends."""
    src = Path(__file__).resolve().parents[1] / "src" / "ergodic_vc"
    readers = {f.name for f in src.glob("*.py") if re.search(r"\.(den|ends)\b", f.read_text())}
    assert readers == {"intervals.py"}


def test_only_intervals_compiles_tables_and_one_loop_scores_them():
    """A ScoringTable is built only in intervals (``scoring_table``, and
    ``head`` cutting one), and only deviation._sup_deviation loops over a
    table's members: one member-scoring loop."""
    src = Path(__file__).resolve().parents[1] / "src" / "ergodic_vc"
    builders = {
        f.name for f in src.glob("*.py") if re.search(r"\bScoringTable\(|\.members\.(append|extend)\b", f.read_text())
    }
    assert builders == {"intervals.py"}

    class Loops(ast.NodeVisitor):
        """Qualified names of the functions that loop over some ``x.members``."""

        def __init__(self, module):
            self.scope, self.found = [module], set()

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def _loop(self, node):
            called = {id(n.func) for n in ast.walk(node.iter) if isinstance(n, ast.Call)}
            if any(
                isinstance(n, ast.Attribute) and n.attr == "members" and id(n) not in called
                for n in ast.walk(node.iter)
            ):
                self.found.add(".".join(self.scope))
            self.generic_visit(node)

        visit_For = visit_comprehension = _loop

    loops = set()
    for f in src.glob("*.py"):
        visitor = Loops(f.stem)
        visitor.visit(ast.parse(f.read_text()))
        loops |= visitor.found
    assert loops == {"deviation._sup_deviation"}


def test_closed_form_unranking_matches_the_enumeration_loops():
    """Every family's member sequence, pinned against the enumerations it
    replaced: the order-by-order loops of half and dyadic, the rank-by-rank
    unranking of k-intervals (in order and in a shuffled first-read order)
    and the 2**n scan of run patterns. Each reference builds through the
    checked from_ends, so the unchecked builds must reduce the same way."""

    def half_by_loop(i):
        order = 1
        while i >= (1 << (order - 1)):
            i -= 1 << (order - 1)
            order += 1
        return IntervalUnion.from_ends(1 << order, (0, 2 * i + 1))

    def dyadic_by_loop(i, max_order):
        for o in range(1, max_order + 1):
            if i < 1 << o:
                return IntervalUnion.from_ends(1 << o, (i, i + 1))
            i -= 1 << o
        raise IndexError(i)

    def unrank_combination(n, k, rank):
        """rank-th k-subset of range(n) in lexicographic order."""
        out = []
        x = 0
        for slot in range(k, 0, -1):
            while True:
                block = comb(n - x - 1, slot - 1)
                if rank < block:
                    break
                rank -= block
                x += 1
            out.append(x)
            x += 1
        return out

    def k_intervals_by_unranking(k, order, i):
        n_endpoints = (1 << order) + 1
        if i == 0:
            return IntervalUnion()
        i -= 1
        for t in range(1, k + 1):
            if i < comb(n_endpoints, 2 * t):
                return IntervalUnion.from_ends(1 << order, unrank_combination(n_endpoints, 2 * t, i))
            i -= comb(n_endpoints, 2 * t)
        raise IndexError(i)

    def masks_by_scan(k, n):
        def runs(mask):
            r = 0
            prev = 0
            for t in range(n):
                bit = mask >> t & 1
                if bit and not prev:
                    r += 1
                prev = bit
            return r

        return [m for m in range(1 << n) if runs(m) <= k]

    half = half_interval_class()
    assert all(half.member(i) == half_by_loop(i) for i in range(10_000))
    dyadic = dyadic_class(12)
    assert dyadic.size == 8_190
    assert all(dyadic.member(i) == dyadic_by_loop(i, 12) for i in range(dyadic.size))
    with pytest.raises(IndexError):
        dyadic.member(dyadic.size)
    for k in (1, 2, 3, 4):
        n_cells = 1 << (1 << k)
        expected = [IntervalUnion.from_ends(n_cells, range(1 << u, n_cells + 1, 1 << u)) for u in range(1 << k)]
        assert subset_indexed_sets(k) == expected

    rng = random.Random(0)
    for k in (1, 2, 3):
        for order in (1, 2, 3, 4):
            fam = k_interval_class(k, order)
            in_order = list(fam.members(fam.size))
            assert in_order == [k_intervals_by_unranking(k, order, i) for i in range(fam.size)]
            shuffled = rng.sample(range(fam.size), fam.size)
            fresh = k_interval_class(k, order)
            assert [fresh.member(i) for i in shuffled] == [in_order[i] for i in shuffled]
    reduced = k_interval_class(1, 3).member(2)
    assert reduced == IntervalUnion.from_ends(8, (0, 2)) == iu("[0,1/4)")
    assert (reduced.den, reduced.ends) == (4, (0, 1))

    for k, n in [*((k, n) for n in range(1, 13) for k in (0, 1, 2, 3)), (2, 16)]:
        grid = [F(2 * j + 1, 2 * n) for j in range(n)]
        fam = run_pattern_class(k, grid)
        traces = [sum(1 << t for t, x in enumerate(grid) if x in m) for m in fam.members(fam.size)]
        assert traces == masks_by_scan(k, n)


def test_count_in_matches_membership():
    u = iu("[0,1/3) u [1/2,2/3)")
    precision = 8
    fixed = sorted(n for n in range(0, 256, 7))
    direct = sum(1 for n in fixed if F(n, 256) in u)
    assert count_in(u.thresholds(precision), fixed) == direct


@given(rat(den_cap=1000))
def test_ceil_fixed_is_least_numerator_at_or_above(x):
    n = ceil_fixed(x, 8)
    assert F(n - 1, 256) < x <= F(n, 256)


@st.composite
def grid_union_and_points(draw):
    """A union with endpoints on the 2**-8 grid and points often on them."""
    ends = sorted(draw(st.lists(st.integers(0, 256), min_size=2, max_size=8, unique=True)))
    u = normalize((F(a, 256), F(b, 256)) for a, b in zip(ends[::2], ends[1::2]))
    on_ends = st.sampled_from([e for e in ends if e < 256])
    points = draw(st.lists(st.one_of(on_ends, st.integers(0, 255)), min_size=1, max_size=40))
    return u, points


@given(grid_union_and_points())
def test_fixed_thresholds_match_membership_on_endpoints(case):
    u, points = case
    inside = [i for i, n in enumerate(points, start=1) if F(n, 256) in u]
    assert count_in(u.thresholds(8), sorted(points)) == len(inside)
    if inside:
        path = SamplePath(iid_spec(0), 8, tuple(points))
        assert induce(path, u, len(inside)).hits == tuple(inside)


def test_set_family_budget_guard():
    fam = SetFamily("three", lambda i: iu("[0,1/2)"), size=3)
    fam.check_budget(3)
    with pytest.raises(ValueError):
        fam.check_budget(4)


def test_members_refuses_a_bad_budget_when_called():
    """The budget is checked by the call itself, before anything iterates."""
    with pytest.raises(ValueError, match="exceeds family"):
        dyadic_class(3).members(15)
    with pytest.raises(ValueError, match="nonnegative"):
        half_interval_class().members(-1)


def test_members_holds_no_member_it_has_yielded():
    """A countable family streamed through members() keeps nothing behind:
    100,000 half-intervals, each dropped once read, trace a peak far below
    the ~25 MB that keeping every member costs."""
    half = half_interval_class()
    _, peak = _peak(lambda fam: deque(fam.members(100_000), maxlen=0), half)
    assert peak < 1 << 20


def test_set_family_of_lists_members_in_order():
    sets = [iu("[0,1/2)"), iu("[1/4,1)")]
    fam = SetFamily.of("pair", iter(sets))
    assert fam.size == 2
    assert list(fam.members(2)) == sets
    with pytest.raises(IndexError):
        fam.member(2)
