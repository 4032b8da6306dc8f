"""Exact interval-union algebra: normalization, measure, DSL round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ergodic_vc import (
    Interval,
    IntervalUnion,
    ParseError,
    SamplePath,
    SetFamily,
    iid_spec,
    induce,
    iu,
    normalize,
)
from ergodic_vc.intervals import ceil_fixed

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


def test_count_fixed_matches_membership():
    u = iu("[0,1/3) u [1/2,2/3)")
    precision = 8
    fixed = sorted(n for n in range(0, 256, 7))
    direct = sum(1 for n in fixed if F(n, 256) in u)
    assert u.count_fixed(fixed, precision) == direct


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
    assert u.count_fixed(sorted(points), 8) == len(inside)
    if inside:
        path = SamplePath(iid_spec(0), 8, tuple(points))
        assert induce(path, u, len(inside)).hits == tuple(inside)


def test_set_family_budget_guard():
    fam = SetFamily("three", lambda i: iu("[0,1/2)"), size=3)
    fam.check_budget(3)
    with pytest.raises(ValueError):
        fam.check_budget(4)


def test_set_family_of_lists_members_in_order():
    sets = [iu("[0,1/2)"), iu("[1/4,1)")]
    fam = SetFamily.of("pair", iter(sets))
    assert fam.size == 2
    assert list(fam.members(2)) == sets
    with pytest.raises(IndexError):
        fam.member(2)
