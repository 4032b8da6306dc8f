"""Piecewise-linear classes, discretization, truncation, graph lifts, splits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ergodic_vc import (
    GraphSample,
    InsufficientDataError,
    PiecewiseFn,
    SamplePath,
    discretize_major,
    gamma_fn,
    gamma_split,
    generate,
    graph_lift,
    iid_spec,
    lm_bound,
    ramp_family,
    random_piecewise_fn,
    truncate_envelope,
    vc_dimension,
)
from ergodic_vc.functions import _plan_sums
from ergodic_vc.intervals import ceil_fixed

F = Fraction

IDENTITY = PiecewiseFn((0, 1), ((1, 0),), 1)


def path_from(values):
    return SamplePath.from_values([F(v) for v in values], precision=64)


# -- the function representation ----------------------------------------------------


def test_piecewise_basics():
    f = PiecewiseFn((0, F(1, 2), 1), ((1, 0), (-1, 1)), 1)
    assert f(F(1, 4)) == F(1, 4)
    assert f(F(3, 4)) == F(1, 4)
    assert f(F(1, 2)) == F(1, 2)
    assert f.mean() == F(1, 4)
    with pytest.raises(ValueError):
        f(F(3, 2))
    with pytest.raises(ValueError):
        PiecewiseFn((0, 1), ((2, 0),), 1)
    with pytest.raises(AttributeError):
        f.bound = 2


def test_affine_and_range():
    f = IDENTITY.affine(F(1, 2), F(1, 4))
    assert f(F(1, 2)) == F(1, 2)
    lo, hi = f.range_bounds()
    assert lo == F(1, 4) and hi == F(3, 4)


def test_constant_and_json_round_trip():
    c = PiecewiseFn.constant(F(-1, 3))
    assert c(F(1, 2)) == F(-1, 3) and c.bound == F(1, 3)
    f = PiecewiseFn((0, F(1, 3), 1), ((3, 0), (0, 1)), 1)
    assert PiecewiseFn(**f.to_json()) == f


# -- level discretization -------------------------------------------------------------


def test_discretize_contract_example():
    g = discretize_major(IDENTITY, 1, 4)
    assert g(F(3, 10)) == F(1, 2)
    assert g(F(9, 10)) == 1


def test_discretize_rejects_bad_bound():
    with pytest.raises(ValueError):
        discretize_major(IDENTITY, F(1, 2), 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_discretize_sandwich_everywhere(seed, levels):
    f = random_piecewise_fn(seed)
    g = discretize_major(f, f.bound, levels)
    eps = 2 * f.bound / levels
    probes = set(f.breakpoints[:-1]) | set(g.breakpoints[:-1])
    probes |= {
        (a + b) / 2 for a, b in zip(sorted(probes), sorted(probes)[1:])
    }
    for x in probes:
        assert g(x) - eps <= f(x) <= g(x)


def test_discretize_staircase_is_constant_per_piece():
    f = random_piecewise_fn(7)
    g = discretize_major(f, f.bound, 5)
    assert all(s == 0 for s in g.slopes)


# -- envelope truncation -------------------------------------------------------------


def test_truncate_contract_example():
    big = PiecewiseFn((0, 1), ((2, 0),), 2)
    tr = truncate_envelope(big, big, 1)
    assert tr.tail == F(3, 2)
    assert tr.fn(F(1, 4)) == F(1, 2)
    assert tr.fn(F(3, 4)) == 0
    assert tr.fn.bound == 1


def test_truncate_noop_when_envelope_small():
    tr = truncate_envelope(IDENTITY, IDENTITY, 1)
    assert tr.tail == 0
    assert tr.fn(F(1, 3)) == F(1, 3)


def test_truncate_tail_is_twice_exceedance_integral():
    env = PiecewiseFn((0, F(1, 2), 1), ((0, F(1, 2)), (4, F(-3, 2))), F(5, 2))
    f = env
    cap = F(3, 2)
    tr = truncate_envelope(f, env, cap)
    exceed = F(0)
    for a, b, s, c in (
        (F(3, 4), 1, 4, F(-3, 2)),
    ):
        exceed += s * (b * b - a * a) / 2 + c * (b - a)
    assert tr.tail == 2 * exceed
    assert tr.fn(F(7, 8)) == 0
    assert tr.fn(F(1, 4)) == F(1, 2)


def test_truncate_requires_dominating_envelope():
    small = PiecewiseFn.constant(F(1, 4))
    with pytest.raises(ValueError):
        truncate_envelope(IDENTITY, small, 1)


# -- function-class deviations --------------------------------------------------------


def test_gamma_fn_single_member_hand_computed():
    path = path_from(["1/4", "3/4"])
    res = gamma_fn([IDENTITY], path, 2)
    assert res.value == 0
    res1 = gamma_fn([IDENTITY], path, 1)
    assert res1.value == F(1, 4)
    assert res1.argmax == 0


def test_gamma_fn_empty_family_and_short_path():
    path = path_from(["1/4"])
    assert gamma_fn([], path, 1).value == 0
    with pytest.raises(InsufficientDataError):
        gamma_fn([IDENTITY], path, 2)


# -- graph lifts ----------------------------------------------------------------------


def test_graph_lift_deterministic_and_in_range():
    path = generate(iid_spec(1), 50)
    a = graph_lift(path, yseed=2)
    b = graph_lift(path, yseed=2)
    c = graph_lift(path, yseed=3)
    assert a.yfixed == b.yfixed != c.yfixed
    assert all(0 <= y < 1 << a.precision for y in a.yfixed)


def test_graph_lift_indicator_hand_computed():
    path = path_from(["1/2", "1/2"])
    gs = GraphSample(path, 0, (1 << 62, 1 << 63))
    assert gs.indicator_mean(IDENTITY, 1) == 1
    assert gs.indicator_mean(IDENTITY, 2) == 1
    low = PiecewiseFn.constant(F(1, 8))
    assert gs.indicator_mean(low, 2) == 0


def test_frozen_fubini_mean():
    path = generate(iid_spec(5), 10_000)
    gs = graph_lift(path, yseed=6)
    assert gs.indicator_mean(IDENTITY, 10_000) == F(497, 1000)


def test_graph_indicator_closed_inequality():
    path = path_from(["1/2"])
    gs = GraphSample(path, 0, (1 << 63,))
    assert gs.indicator_mean(IDENTITY, 1) == 1


# -- the two-part deviation split ------------------------------------------------------


def test_gamma_split_triangle_and_frozen_values():
    path = generate(iid_spec(1000), 1000)
    gs = graph_lift(path, yseed=2000)
    split = gamma_split(ramp_family(10), gs, 1000)
    assert split.bound_ok
    assert split.gamma <= split.gamma1 + split.gamma2
    assert split.scale == 1
    assert split.gamma1 == F(11, 500)
    assert float(split.gamma) == 0.007236217752801908
    assert float(split.gamma2) == 0.014763782247198091
    assert float(split.gamma2) <= lm_bound(1000, 2)


def test_gamma_split_rescales_unbounded_family():
    big = PiecewiseFn((0, 1), ((2, 0),), 2)
    path = generate(iid_spec(2), 100)
    gs = graph_lift(path, yseed=3)
    split = gamma_split([big], gs, 100)
    assert split.scale == 4
    assert split.bound_ok
    assert split.scale * split.gamma == gamma_fn([big], path, 100).value


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 4))
def test_gamma_split_triangle_holds_on_random_instances(seed, nfns):
    fns = [random_piecewise_fn(seed * 7 + j) for j in range(nfns)]
    path = generate(iid_spec(seed), 60)
    gs = graph_lift(path, yseed=seed + 1)
    split = gamma_split(fns, gs, 60)
    assert split.gamma <= split.gamma1 + split.gamma2


def test_lm_bound_frozen_values():
    assert abs(lm_bound(100, 2) - 0.6300281966465459) < 1e-15
    assert abs(lm_bound(1000, 2) - 0.24092037472318845) < 1e-15
    assert lm_bound(10_000, 2) < lm_bound(1000, 2) < lm_bound(100, 2)


# -- exact sample sums and graph membership -----------------------------------------


@st.composite
def plan_cases(draw):
    """A function, a precision and (x, y) pairs crowding its breakpoints.

    Half the functions are ``discretize_major`` staircases, which jump at
    their breakpoints, so a point given to the wrong piece changes the sum.
    x values sit at and next to each inner breakpoint's ``ceil_fixed``, some
    repeat, and y is often the floor or ceiling of f(x) * 2**P, which is
    f(x) itself when that product is an integer.
    """
    precision = draw(st.sampled_from([10, 64, 128]))
    f = random_piecewise_fn(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        f = discretize_major(f, 1, draw(st.sampled_from([1, 2, 3, 4, 8])))
    scale = 1 << precision
    near = [
        n
        for b in f.breakpoints[1:-1]
        for n in (ceil_fixed(b, precision) + d for d in (-1, 0, 1))
        if n < scale
    ]
    point = st.integers(0, scale - 1)
    if near:
        point = st.one_of(st.sampled_from(near), point)
    xs = draw(st.lists(point, min_size=1, max_size=30))
    xs += xs[: draw(st.integers(0, len(xs)))]
    ys = []
    for x in xs:
        v = f(F(x, scale)) * scale
        ys.append(draw(st.one_of(st.sampled_from([math.floor(v), math.ceil(v)]), point)))
    return f, precision, xs, ys


@settings(max_examples=200, deadline=None)
@given(plan_cases())
def test_plan_sums_match_a_per_point_recount(case):
    f, precision, xs, ys = case
    scale = 1 << precision
    values = [f(F(x, scale)) for x in xs]
    inside = [y * v.denominator <= v.numerator * scale for y, v in zip(ys, values)]
    pairs = sorted(zip(xs, ys))
    sorted_xs, sorted_ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert _plan_sums(f, precision, sorted_xs, sorted_ys) == (sum(values), sum(inside))
    assert _plan_sums(f, precision, sorted_xs) == (sum(values), 0)
    assert [_plan_sums(f, precision, (x,), (y,))[1] for x, y in zip(xs, ys)] == inside


def test_ramp_family_shape():
    fns = ramp_family(10)
    assert len(fns) == 10
    f3 = fns[3]
    assert f3(F(3, 10)) == 0
    assert f3(F(4, 10)) == F(1, 5)
    lo, hi = f3.range_bounds()
    assert lo == 0 and hi == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_piecewise_fn_valid_and_reproducible(seed):
    f = random_piecewise_fn(seed)
    g = random_piecewise_fn(seed)
    assert f == g
    assert f.breakpoints[0] == 0 and f.breakpoints[-1] == 1
    lo, hi = f.range_bounds()
    assert -f.bound <= lo <= hi <= f.bound
