"""Shatter coefficients, growth bounds, dimension search, joins, witnesses."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from ergodic_vc import (
    AtomSet,
    SetFamily,
    dyadic_class,
    full_join_witness,
    is_shattered,
    iu,
    join,
    k_interval_class,
    normalize,
    run_pattern_class,
    sauer_bound,
    shatter_coefficient,
    subset_indexed_sets,
    union_family,
    vc_dimension,
)
from ergodic_vc.errors import ResourceLimitError
from ergodic_vc.intervals import traces
from ergodic_vc.oracles import brute_shatter_coefficient, brute_vc_dimension
from ergodic_vc.vc import VcDimension, _columns

F = Fraction


def grid(order):
    den = 1 << (order + 1)
    return [F(2 * i + 1, den) for i in range(den // 2)]


def random_union(draw_fixed, cells=4):
    picks = sorted(set(draw_fixed))
    return normalize([(F(j, 64), F(j + 1, 64)) for j in picks])


# -- shatter coefficient and the binomial-sum bound --------------------------------


def test_shatter_matches_brute_on_dyadic():
    fam = dyadic_class(3)
    pts = grid(4)
    sets = [fam.member(i) for i in range(fam.size)]
    assert shatter_coefficient(pts, fam, fam.size) == brute_shatter_coefficient(pts, sets)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=8, unique=True),
    st.lists(st.lists(st.integers(0, 63), min_size=1, max_size=6), min_size=1, max_size=8),
)
def test_shatter_and_dimension_match_brute(point_cells, member_cells):
    pts = [F(2 * j + 1, 128) for j in sorted(point_cells)]
    sets = [random_union(cells) for cells in member_cells]
    fam = SetFamily.of("listed", sets)
    s = shatter_coefficient(pts, fam, fam.size)
    assert s == brute_shatter_coefficient(pts, sets)
    res = vc_dimension(fam, fam.size, pts, max_k=len(pts))
    assert res.dim == brute_vc_dimension(pts, sets, len(pts))
    bound = sauer_bound(len(pts), res.dim).exact
    assert s <= bound
    firsts = []  # firsts[k - 1]: the lexicographically first shattered k-subset
    for k in range(1, len(pts) + 1):
        shattered = (c for c in combinations(pts, k) if brute_shatter_coefficient(c, sets) == 1 << k)
        first = next(shattered, None)
        if first is None:
            break
        firsts.append(first)
    for max_k in range(1, len(pts) + 2):
        res = vc_dimension(fam, fam.size, pts, max_k=max_k)
        dim = min(max_k, len(firsts))
        assert res.dim == dim
        assert res.witness == (firsts[dim - 1] if dim else ())
        assert res.at_cap == (dim == max_k)


@pytest.mark.parametrize("points, upto", [([], 4), (grid(3), 0)])
def test_dimension_of_empty_grid_or_budget_is_zero(points, upto):
    fam = dyadic_class(2)
    res = vc_dimension(fam, upto, points, max_k=3)
    assert (res.dim, res.witness, res.at_cap) == (0, (), False)


def _reference_vc_dimension(fam, upto, grid, max_k):
    """The row-wise search: a set s is extended by point i when the distinct
    trace rows cut s | 1 << i into 2**(|s| + 1) patterns."""
    grid = tuple(grid)
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    masks = {sum(1 << t for t, x in enumerate(grid) if x in member) for member in fam.members(upto)}
    top = min(max_k, len(grid))
    best = ()

    def extend(s, idxs):
        nonlocal best
        if len(idxs) > len(best):
            best = idxs
        if len(best) == top:
            return True
        want = 2 << len(idxs)
        for i in range(idxs[-1] + 1 if idxs else 0, len(grid)):
            t = s | 1 << i
            if len({m & t for m in masks}) == want and extend(t, idxs + (i,)):
                return True
        return False

    extend(0, ())
    dim = len(best)
    return VcDimension(dim, tuple(grid[i] for i in best), dim == max_k)


_MEMBER = st.one_of(
    st.lists(st.integers(0, 63), min_size=1, max_size=6).map(random_union),
    st.lists(st.integers(0, 63), max_size=6).map(lambda js: AtomSet([2 * j + 1 for j in js], 7)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 63), max_size=10, unique=True),
    st.lists(_MEMBER, max_size=10),
    st.lists(st.integers(0, 9), max_size=4),
    st.integers(0, 14),
)
@example(point_cells=[3, 9, 20], members=[], dups=[], budget=0)
@example(
    point_cells=[3, 9, 20],
    members=[iu("[0,1/8)"), AtomSet([19, 41], 7), iu("[1/8,1/2)")],
    dups=[0, 1],
    budget=3,
)
def test_cell_search_matches_the_row_search(point_cells, members, dups, budget):
    pts = [F(2 * j + 1, 128) for j in sorted(point_cells)]
    members = members + [members[d % len(members)] for d in dups if members]
    fam = SetFamily.of("mixed", members)
    upto = min(budget, fam.size)
    for max_k in range(1, len(pts) + 2):
        assert vc_dimension(fam, upto, pts, max_k) == _reference_vc_dimension(fam, upto, pts, max_k)


# Union ends on sevenths, thirds and 1/32ths; grid points on the same cuts
# (so they fall exactly on ends), on odd 1/128ths (so they can be AtomSet
# atoms at precision 7) and outside [0, 1).
TRACE_CUTS = sorted({F(j, 7) for j in range(8)} | {F(j, 3) for j in range(4)} | {F(j, 32) for j in range(33)})
TRACE_POINTS = TRACE_CUTS[:-1] + [F(2 * j + 1, 128) for j in range(0, 64, 5)] + [F(-1, 3), F(1), F(9, 7)]

_TRACE_MEMBER = st.one_of(
    st.lists(st.tuples(st.sampled_from(TRACE_CUTS), st.sampled_from(TRACE_CUTS)), max_size=8).map(
        lambda pairs: normalize(sorted(pair) for pair in pairs)
    ),
    st.lists(st.integers(0, 127), max_size=4).map(lambda atoms: AtomSet(atoms, 7)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(TRACE_POINTS), max_size=12),
    st.lists(_TRACE_MEMBER, max_size=8),
    st.lists(st.integers(0, 7), max_size=3),
)
@example(  # one union with more ends than points, one with fewer, points on ends
    points=[F(2, 3), F(1, 7), F(1, 3)],
    members=[iu("[0,1/7) u [2/7,3/7) u [4/7,5/7)"), iu("[1/3,2/3)"), iu("")],
    dups=[1],
)
def test_trace_rows_and_columns_match_membership(points, members, dups):
    """The reader's rows and the search's columns equal the ``x in member`` loop."""
    members = members + [members[d % len(members)] for d in dups if members]
    inside = [[x in member for x in points] for member in members]
    order, rows = traces(points, members)
    assert [points[i] for i in order] == sorted(points)
    assert rows == [sum(1 << s for s, i in enumerate(order) if hits[i]) for hits in inside]
    assert _columns(order, rows) == [
        sum(1 << j for j, hits in enumerate(inside) if hits[t]) for t in range(len(points))
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(TRACE_POINTS), max_size=8, unique=True),
    st.lists(_TRACE_MEMBER, max_size=10),
    st.integers(0, 10),
)
def test_search_on_unsorted_mixed_grids_matches_the_row_search(points, members, budget):
    fam = SetFamily.of("mixed", members)
    upto = min(budget, fam.size)
    for max_k in range(1, len(points) + 2):
        assert vc_dimension(fam, upto, points, max_k) == _reference_vc_dimension(fam, upto, points, max_k)
    if points:
        rows = {sum(1 << t for t, x in enumerate(points) if x in m) for m in members[:upto]}
        assert shatter_coefficient(points, fam, upto) == len(rows)


def test_dimension_search_tests_each_member_at_each_point_once():
    calls = []

    class Counted:
        def __init__(self, inner):
            self.inner = inner

        def __contains__(self, x):
            calls.append(x)
            return x in self.inner

    base = k_interval_class(2, 3)
    fam = SetFamily.of("counted", [Counted(base.member(i)) for i in range(base.size)])
    pts = grid(3)
    upto = fam.size - 3
    assert vc_dimension(fam, upto, pts, max_k=len(pts)).dim == 4
    assert len(calls) == upto * len(pts)
    calls.clear()
    with pytest.raises(ValueError, match="duplicate points"):
        vc_dimension(fam, upto, pts + pts[:1], max_k=2)
    assert calls == []


def test_repeated_points_are_not_shattered():
    x = F(1, 4)
    assert is_shattered([x], [iu("[0,1/2)"), iu("[1/2,1)")])
    assert not is_shattered([x, x], [iu("[0,1/2)"), iu("[1/2,1)"), iu("[0,1)")])
    with pytest.raises(ValueError):
        shatter_coefficient([x, x], dyadic_class(1), 2)


def test_sauer_bound_values():
    assert sauer_bound(4, 0).exact == 1
    assert sauer_bound(4, 2).exact == 1 + 4 + 6
    assert sauer_bound(100, 2).exact == 1 + 100 + comb(100, 2)
    assert sauer_bound(100, 2).poly == 101 ** 2
    with pytest.raises(ValueError):
        sauer_bound(3, 5)


@given(st.integers(0, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
def test_sauer_bound_binomial_sum(mv):
    m, v = mv
    assert sauer_bound(m, v).exact == sum(comb(m, j) for j in range(v + 1))
    assert sauer_bound(m, v).exact <= sauer_bound(m, v).poly or v == 0


# -- known dimensions ----------------------------------------------------------


def test_dyadic_dimension_two():
    fam = dyadic_class(4)
    res = vc_dimension(fam, fam.size, grid(5), max_k=4)
    assert res.dim == 2
    assert not res.at_cap
    assert is_shattered(res.witness, [fam.member(i) for i in range(fam.size)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_interval_dimension_is_2k(k):
    fam = k_interval_class(k, 3)
    pts = [F(2 * i + 1, 32) for i in range(16)]
    res = vc_dimension(fam, fam.size, pts, max_k=2 * k + 2)
    assert res.dim == 2 * k


def test_run_pattern_dimension():
    pts = [F(2 * i + 1, 32) for i in range(16)]
    fam = run_pattern_class(2, pts)
    res = vc_dimension(fam, fam.size, pts, max_k=6)
    assert res.dim == 4


def test_union_with_small_family_adds_at_most_log_size():
    base = dyadic_class(3)
    extra = SetFamily.of("listed", [iu("[0,1/7)"), iu("[1/7,2/7) u [3/7,5/7)"), iu("[2/3,1)")])
    fam = union_family("both", base, extra)
    pts = grid(5)
    d_base = vc_dimension(base, base.size, pts, max_k=4).dim
    d_union = vc_dimension(fam, fam.size, pts, max_k=d_base + 4).dim
    assert d_base <= d_union <= d_base + 3


# -- joins and witnesses ---------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_subset_indexed_join_is_full_and_witnessed(k):
    sets = subset_indexed_sets(k)
    assert len(sets) == 1 << k
    jp = join(sets)
    assert jp.is_full
    assert len(jp.cells) == 1 << (1 << k)
    witness = full_join_witness(jp)
    assert len(witness) == k
    assert is_shattered(witness, sets)
    fam = SetFamily.of("listed", sets)
    assert shatter_coefficient(witness, fam, fam.size) == 1 << k


def test_frozen_k4_witness():
    jp = join(subset_indexed_sets(4))
    witness = full_join_witness(jp)
    assert [str(x) for x in witness] == [
        "87381/131072",
        "104857/131072",
        "123361/131072",
        "130561/131072",
    ]


# 1/32 grid points mixed with thirds and fifths; 0 and 1 are in the pool, and
# sets drawing from one small pool often share endpoints.
JOIN_CUTS = sorted({F(j, 32) for j in range(33)} | {F(1, 3), F(2, 3)} | {F(j, 5) for j in range(1, 5)})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from(JOIN_CUTS), st.sampled_from(JOIN_CUTS)), max_size=5),
        min_size=1,
        max_size=5,
    )
)
def test_join_cells_partition_the_interval(member_pairs):
    sets = [normalize(sorted(pair) for pair in pairs) for pairs in member_pairs]
    jp = join(sets)
    total = sum((c.measure for c in jp.cells.values()), F(0))
    assert total == 1
    cells = list(jp.cells.values())
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            assert a.intersect(b).is_empty
    for mask in range(1 << len(sets)):
        ref = iu("[0,1)")
        for bit, s in enumerate(sets):
            ref = ref.intersect(s if mask >> bit & 1 else s.complement())
        if ref.is_empty:
            assert mask not in jp.cells
        else:
            assert jp.cells[mask] == ref


def test_join_set_count_cap():
    sets = [iu(f"[{j}/64,{j + 1}/64)") for j in range(21)]
    with pytest.raises(ResourceLimitError):
        join(sets)


def test_non_full_join_rejected_for_witness():
    sets = [iu("[0,1/2)"), iu("[0,1/2)")]
    jp = join(sets)
    assert not jp.is_full
    with pytest.raises(ValueError):
        full_join_witness(jp)
