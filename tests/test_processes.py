"""Seeded fixed-point sample paths and orbit-atom families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ergodic_vc import (
    AtomSet,
    ProcessSpec,
    doubling_spec,
    fixed_uniform,
    generate,
    golden_alpha_fixed,
    iid_spec,
    iu,
    markov_spec,
    rotation_spec,
    stationary_distribution,
    trajectory_family,
)
from ergodic_vc.processes import DOMAIN_DOUBLING, DOMAIN_IID, doubling_stream_bits

F = Fraction


# -- counter-based generator -------------------------------------------------------


@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 10_000))
def test_fixed_uniform_range_and_determinism(seed, domain, index):
    a = fixed_uniform(seed, domain, index, 128)
    b = fixed_uniform(seed, domain, index, 128)
    assert a == b
    assert 0 <= a < 1 << 128


def test_fixed_uniform_domains_are_separated():
    xs = {fixed_uniform(7, d, 3, 128) for d in range(1, 7)}
    assert len(xs) == 6


def test_fixed_uniform_precision_prefix_consistency():
    wide = fixed_uniform(11, DOMAIN_IID, 5, 128)
    narrow = fixed_uniform(11, DOMAIN_IID, 5, 64)
    assert narrow == wide >> 64


def test_golden_alpha_value():
    alpha = golden_alpha_fixed(128)
    x = F(alpha, 1 << 128)
    golden = (5 ** F(1, 2) - 1) / 2 if False else None
    lo, hi = F(61803398874, 10**11), F(61803398875, 10**11)
    assert lo < x < hi


# -- process specs -----------------------------------------------------------------


def test_spec_json_round_trip():
    for spec in (
        iid_spec(3),
        rotation_spec(seed=4, x0_fixed=17),
        doubling_spec(5),
        markov_spec(
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
            [iu("[0,1/2)"), iu("[1/2,1)")],
            seed=6,
        ),
    ):
        back = ProcessSpec.from_json(spec.to_json())
        assert back == spec


def test_spec_precision_floor():
    with pytest.raises(ValueError):
        iid_spec(0, precision=32)


def test_spec_seed_must_fit_64_bits():
    assert iid_spec((1 << 64) - 1).seed == (1 << 64) - 1
    for seed in (1 << 64, -1):
        with pytest.raises(ValueError):
            iid_spec(seed)


def test_with_seed_changes_only_seed():
    spec = iid_spec(1)
    other = spec.with_seed(9)
    assert other.seed == 9
    assert (other.kind, other.params, other.precision) == (
        spec.kind,
        spec.params,
        spec.precision,
    )


# -- path generation ----------------------------------------------------------------


def test_iid_path_reproducible_and_prefix_stable():
    spec = iid_spec(12)
    p1 = generate(spec, 50)
    p2 = generate(spec, 100)
    assert p1.fixed == p2.fixed[:50]
    assert all(0 <= n < 1 << 128 for n in p1.fixed)


def test_rotation_ignores_seed_but_tracks_x0():
    a = generate(rotation_spec(seed=1, x0_fixed=5), 10)
    b = generate(rotation_spec(seed=2, x0_fixed=5), 10)
    c = generate(rotation_spec(seed=1, x0_fixed=6), 10)
    assert a.fixed == b.fixed
    assert a.fixed != c.fixed


def test_rotation_steps_by_alpha():
    spec = rotation_spec(seed=0, x0_fixed=123)
    path = generate(spec, 5)
    alpha = spec.params["alpha_fixed"]
    scale = 1 << 128
    for i, n in enumerate(path.fixed, start=1):
        assert n == (123 + i * alpha) % scale


def test_doubling_path_shifts_in_one_stream_bit():
    spec = doubling_spec(3)
    path = generate(spec, 20)
    scale = 1 << 128
    for a, b in zip(path.fixed, path.fixed[1:]):
        assert b - (2 * a) % scale in (0, 1)


def test_doubling_stream_bits_match_msb():
    spec = doubling_spec(3)
    path = generate(spec, 20)
    bits = doubling_stream_bits(3, 21)
    for idx, n in enumerate(path.fixed):
        assert (n >> 127) & 1 == bits[idx + 1]


def test_generate_avoid_points_replaces_collisions():
    spec = rotation_spec(seed=0, x0_fixed=0, alpha_fixed=1 << 126)
    collide = F(1, 2)
    path = generate(spec, 8, avoid=(collide,))
    assert path.audit
    scale = 1 << path.precision
    for n in path.fixed:
        assert F(n, scale) != collide
    for index, original in path.audit:
        assert F(original, scale) == collide
        assert path.fixed[index - 1] == (original + 1) % scale


def test_markov_stationary_distribution_exact():
    matrix = [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]
    pi = stationary_distribution(matrix)
    assert pi == [F(1, 3), F(2, 3)]
    assert sum(pi) == 1


def test_markov_path_lands_in_cells():
    matrix = [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]
    cells = [iu("[0,1/2)"), iu("[1/2,1)")]
    spec = markov_spec(matrix, cells, seed=8)
    path = generate(spec, 100)
    for n in path.fixed:
        x = F(n, 1 << path.precision)
        assert (x in cells[0]) or (x in cells[1])


def test_sorted_fixed_is_sorted_prefix():
    path = generate(iid_spec(2), 64)
    s = path.sorted_fixed(40)
    assert s == sorted(path.fixed[:40])


def test_point_and_points_views():
    path = generate(iid_spec(2), 8)
    assert path.point(3) == F(path.fixed[2], 1 << path.precision)
    assert path.points() == [F(n, 1 << path.precision) for n in path.fixed]


# -- orbit atoms ---------------------------------------------------------------------


def test_atom_set_measure_zero_api():
    a = AtomSet([1, 5, 9, 5], precision=7)
    assert a.measure == 0
    assert a.is_empty is False
    assert len(a) == 3
    assert F(5, 128) in a
    assert F(6, 128) not in a
    assert a.count_fixed([0, 1, 5, 64], 7) == 2


def test_trajectory_family_windows_nest_and_count():
    fam = trajectory_family(golden_alpha_fixed(128), 0, 128, window=3)
    m0, m1 = fam.member(0), fam.member(1)
    assert len(m0) == 7 and len(m1) == 13
    assert all(x in m1 for x in m0.atoms())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 50), st.integers(1, 5))
def test_trajectory_contains_its_own_path(j, window):
    spec = rotation_spec(seed=0, x0_fixed=99)
    fam = trajectory_family(spec.params["alpha_fixed"], 99, 128, window=window)
    member = fam.member(j)
    reach = window * (j + 1)
    path = generate(spec, reach)
    for n in path.fixed:
        assert F(n, 1 << 128) in member
