"""First-return paths: pacing, mean return time, the frequency transfer identity."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ergodic_vc import (
    InsufficientDataError,
    IntervalUnion,
    SamplePath,
    SetFamily,
    deviation_transfer_bound,
    dyadic_class,
    frequency_transfer_identity,
    generate,
    iid_spec,
    induce,
    induced_uniform_deviation,
    iu,
    kac_ratio,
    mean_return_time,
    normalize,
    rotation_spec,
    trajectory_family,
    uniform_deviation,
)

F = Fraction


def path_from(values):
    return SamplePath.from_values([F(v) for v in values], precision=64)


# -- construction --------------------------------------------------------------


def test_induce_records_one_based_return_indices():
    path = path_from(["3/4", "1/8", "5/8", "1/4", "1/16"])
    ip = induce(path, iu("[0,1/2)"), 3)
    assert ip.hits == (2, 4, 5)
    assert ip.taus == (0, 2, 4, 5)
    assert ip.count == 3
    assert [F(n, 1 << 64) for n in ip.induced_fixed] == [F(1, 8), F(1, 4), F(1, 16)]


def test_induce_requires_enough_returns():
    path = path_from(["3/4", "1/8"])
    with pytest.raises(InsufficientDataError):
        induce(path, iu("[0,1/2)"), 2)
    with pytest.raises(ValueError):
        induce(path, iu(""), 1)


def test_induced_path_view():
    path = path_from(["3/4", "1/8", "5/8", "1/4"])
    ip = induce(path, iu("[0,1/2)"), 2)
    view = ip.induced_path()
    assert view.fixed == ip.induced_fixed
    assert view.precision == path.precision


# -- pacing and return times ----------------------------------------------------


def test_kac_ratio_hand_computed():
    path = path_from(["3/4", "1/8", "5/8", "1/4", "1/16"])
    ip = induce(path, iu("[0,1/2)"), 3)
    assert kac_ratio(ip, 1) == 0
    assert kac_ratio(ip, 2) == F(1, 2) * F(2, 2)
    assert kac_ratio(ip, 4) == F(1, 2) * F(5, 4)
    with pytest.raises(InsufficientDataError):
        kac_ratio(ip, 5)


def test_mean_return_time_hand_computed():
    path = path_from(["3/4", "1/8", "5/8", "1/4", "1/16"])
    ip = induce(path, iu("[0,1/2)"), 3)
    assert mean_return_time(ip) == F(5 - 2, 2)
    with pytest.raises(InsufficientDataError):
        mean_return_time(induce(path, iu("[0,1/2)"), 1))


def test_frozen_golden_rotation_kac_pacing():
    path = generate(rotation_spec(seed=3), 35_000)
    ip = induce(path, iu("[0,1/3)"), 10_000)
    assert kac_ratio(ip, 10_000) == F(3749, 3750)
    assert mean_return_time(ip) == F(29992, 9999)
    assert abs(mean_return_time(ip) - 3) < F(3, 10)


# -- the transfer identity -------------------------------------------------------


def test_transfer_identity_hand_computed():
    path = path_from(["3/4", "1/8", "5/8", "1/4", "1/16"])
    ip = induce(path, iu("[0,1/2)"), 3)
    ident = frequency_transfer_identity(ip, iu("[0,3/16)"), 2)
    assert ident.lhs == F(1, 2)
    assert ident.holds


def test_frozen_rotation_identity_instance():
    path = generate(rotation_spec(seed=3), 35_000)
    ip = induce(path, iu("[0,1/3)"), 10_000)
    ident = frequency_transfer_identity(ip, iu("[0,1/6)"), 5000)
    assert ident.lhs == F(1, 2) == ident.rhs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 100_000),
    st.lists(st.integers(0, 15), min_size=4, max_size=16, unique=True),
    st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True),
    st.integers(1, 10),
)
def test_transfer_identity_holds_on_random_instances(seed, region_cells, c_cells, m):
    region = normalize([(F(j, 16), F(j + 1, 16)) for j in sorted(region_cells)])
    c = normalize([(F(j, 16), F(j + 1, 16)) for j in sorted(c_cells)])
    path = generate(iid_spec(seed), 120)
    try:
        ip = induce(path, region, m)
    except InsufficientDataError:
        return
    ident = frequency_transfer_identity(ip, c, m)
    assert ident.holds


# -- induced deviations ----------------------------------------------------------


def test_induced_deviation_against_conditional_law():
    path = path_from(["1/8", "3/4", "1/8", "3/8", "1/8", "3/8"])
    ip = induce(path, iu("[0,1/2)"), 5)
    fam = dyadic_class(2)
    res = induced_uniform_deviation(ip, fam, fam.size, 4)
    assert res.value == abs(F(3, 4) - F(1, 2))
    with pytest.raises(InsufficientDataError):
        induced_uniform_deviation(ip, fam, fam.size, 6)


def test_transfer_bound_fields_consistent():
    path = generate(rotation_spec(seed=3), 30_000)
    ip = induce(path, iu("[0,1/3)"), 2_000)
    fam = dyadic_class(3)
    tb = deviation_transfer_bound(ip, fam, fam.size, 2_000)
    assert tb.lower_bound == tb.base_deviation / ip.region.measure - abs(tb.pacing - 1)
    assert tb.holds
    with pytest.raises(ValueError):
        deviation_transfer_bound(ip, fam, fam.size, 1)


def _first_sup(values):
    """Supremum with its lowest argmax; (0, None) for no values."""
    if not values:
        return F(0), None
    best = max(values)
    return best, values.index(best)


@st.composite
def scored_instance(draw):
    """A short path on the 1/64 grid, a dyadic region, and dyadic cells plus orbit atoms."""
    points = draw(st.lists(st.integers(0, 63), min_size=2, max_size=40))
    path = path_from([F(k, 64) for k in points])
    region = iu(draw(st.sampled_from(["[0,1/2)", "[1/4,1)", "[0,1/8) u [1/2,3/4)"])))
    orbit = trajectory_family(
        draw(st.integers(1, 63)) << 58, draw(st.integers(0, 63)) << 58, 64, draw(st.integers(1, 3))
    )
    dyadic = dyadic_class(3)
    fam = SetFamily.of("mixed", [*dyadic.members(dyadic.size), orbit.member(0)])
    upto = draw(st.integers(0, fam.size))
    count = sum(1 for x in path.points() if x in region)
    assume(count >= 2)
    return path, region, fam, upto, count, draw(st.integers(1, len(points))), draw(st.integers(2, count))


@settings(deadline=None)
@given(scored_instance())
def test_scoring_loop_matches_direct_recount(case):
    path, region, fam, upto, count, m_base, m = case
    xs = path.points()
    members = [fam.member(i) for i in range(upto)]

    def in_region(c):
        return (c & region).measure if isinstance(c, IntervalUnion) else F(0)

    values = [abs(F(sum(x in c for x in xs[:m_base]), m_base) - c.measure) for c in members]
    res = uniform_deviation(fam, upto, path, m_base)
    assert (res.value, res.argmax) == _first_sup(values)

    ip = induce(path, region, count)
    induced = [xs[t - 1] for t in ip.hits[:m]]
    mu = region.measure
    values = [abs(F(sum(x in c for x in induced), m) - in_region(c) / mu) for c in members]
    res = induced_uniform_deviation(ip, fam, upto, m)
    assert (res.value, res.argmax) == _first_sup(values)

    base = xs[: ip.taus[m - 1]]
    values = [
        abs(F(sum(x in c and x in region for x in base), len(base)) - in_region(c))
        for c in members
    ]
    tb = deviation_transfer_bound(ip, fam, upto, m)
    assert tb.base_deviation == _first_sup(values)[0]
