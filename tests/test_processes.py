"""Seeded fixed-point sample paths and orbit-atom families."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ergodic_vc import (
    AtomSet,
    ProcessSpec,
    SamplePath,
    doubling_spec,
    fixed_uniform,
    generate,
    golden_alpha_fixed,
    iid_spec,
    iu,
    markov_spec,
    normalize,
    rotation_spec,
    stationary_distribution,
    trajectory_family,
)
from ergodic_vc.cli import _build_parser, _resolve
from ergodic_vc.intervals import count_in
from ergodic_vc.processes import (
    DOMAIN_DOUBLING,
    DOMAIN_FN_GEN,
    DOMAIN_IID,
    DOMAIN_MARKOV_EMIT,
    DOMAIN_MARKOV_STATE,
    DOMAIN_YLIFT,
    uniforms,
)

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


PRECISIONS = st.sampled_from([64, 65, 127, 128, 200])
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    SEEDS,
    st.sampled_from(
        [DOMAIN_IID, DOMAIN_DOUBLING, DOMAIN_MARKOV_STATE, DOMAIN_MARKOV_EMIT, DOMAIN_YLIFT, DOMAIN_FN_GEN]
    ),
    st.integers(0, 10**6),
    st.integers(0, 130),
    PRECISIONS,
)
def test_uniforms_batch_matches_fixed_uniform(seed, domain, start, count, precision):
    expected = [fixed_uniform(seed, domain, i, precision) for i in range(start, start + count)]
    assert uniforms(seed, domain, start, count, precision) == expected


# A chunk is 4,096 counters up to 128 bits and 2,048 at 200 bits, so these
# runs cross one, two or more chunk edges, some from a start on an edge.
CHUNK_RUNS = [(0, 0), (4096, 1), (0, 4097), (1, 8193), (4096, 8191), (4097, 8193), (2047, 2050)]


@pytest.mark.parametrize("precision", [64, 65, 127, 128, 200])
@pytest.mark.parametrize("start, count", CHUNK_RUNS)
def test_uniforms_across_chunk_edges_match_fixed_uniform(start, count, precision):
    expected = [fixed_uniform(5, DOMAIN_IID, i, precision) for i in range(start, start + count)]
    assert uniforms(5, DOMAIN_IID, start, count, precision) == expected


def test_golden_alpha_value():
    # alpha = floor((sqrt 5 - 1) / 2 * 2**P), so 2 alpha + 2**P <= sqrt 5 * 2**P < 2 alpha + 2 + 2**P.
    for precision in (64, 128, 200):
        alpha, one = golden_alpha_fixed(precision), 1 << precision
        assert (2 * alpha + one) ** 2 <= 5 * one**2 < (2 * alpha + 2 + one) ** 2


# -- process specs -----------------------------------------------------------------


def test_spec_json_round_trip():
    """Hand-written config sections, as the CLI reads them, give each kind's spec."""
    half = ["1/2", "1/2"]
    for config, spec in (
        ({"process": {"kind": "iid-uniform", "seed": 3}}, iid_spec(3)),
        ({"process": {"kind": "rotation", "seed": 4, "params": {"x0_fixed": "17"}}}, rotation_spec(seed=4, x0_fixed=17)),
        ({"process": {"kind": "doubling", "seed": 5}, "precision": 200}, doubling_spec(5, 200)),
        (
            {"process": {"kind": "markov", "seed": 6, "params": {"matrix": [half, half], "cells": ["[0,1/2)", "[1/2,1)"]}}},
            markov_spec([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], [iu("[0,1/2)"), iu("[1/2,1)")], seed=6),
        ),
    ):
        args = _build_parser().parse_args(["converge"])
        assert _resolve(args, config) is None
        assert args.spec == spec
    assert not hasattr(ProcessSpec, "from_json")


def test_markov_spec_refuses_a_reducible_chain():
    with pytest.raises(ValueError, match="chain is reducible"):
        markov_spec([[1, 0], [0, 1]], ["[0,1/2)", "[1/2,1)"], 0)


def _built(constructor):
    try:
        return constructor()
    except (TypeError, ValueError):
        return None


_EIGHTHS = st.integers(0, 8).map(lambda i: f"{i}/8")


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(["alpha_fixed", "x0_fixed"]),
    value=st.one_of(st.integers(0, 1 << 130), st.integers(0, 4).map(lambda j: j << 128), st.booleans(), st.floats()),
    matrix=st.lists(st.lists(_EIGHTHS, min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_cli_and_constructors_follow_one_rule(key, value, matrix):
    """A rotation numerator (a digit string in a config, the int itself or a
    bool or float through the API) and a 2x2 chain over eighths: the CLI's
    resolve step passes and gives the constructor's spec, or it exits 2 and
    the constructor raises."""
    cells = ["[0,1/2)", "[1/2,1)"]
    for process, constructor in (
        ({"kind": "rotation", "params": {key: str(value) if type(value) is int else value}},
         lambda: rotation_spec(0, **{key: value})),
        ({"kind": "markov", "params": {"matrix": matrix, "cells": cells}}, lambda: markov_spec(matrix, cells, 0)),
    ):
        args = _build_parser().parse_args(["graph-lift"])
        problem = _resolve(args, {"process": process})
        spec = _built(constructor)
        assert (problem is None) == (spec is not None), problem
        if spec is not None:
            assert args.spec == spec


@pytest.mark.parametrize("alpha", [0, 1 << 128, -(5 << 128)])
def test_rotation_by_a_whole_turn_raises(alpha):
    """alpha = 0 mod 2**precision is a constant path; an even alpha is fine."""
    with pytest.raises(ValueError, match="0 mod 2"):
        rotation_spec(0, alpha)
    with pytest.raises(ValueError, match="0 mod 2"):
        ProcessSpec("rotation", {"alpha_fixed": alpha, "x0_fixed": 0}, 0)
    if alpha:
        assert rotation_spec(0, alpha, precision=129).params["alpha_fixed"] == alpha
    assert golden_alpha_fixed(128) % 2 == 0 and rotation_spec(0).params["alpha_fixed"] == golden_alpha_fixed(128)


@pytest.mark.parametrize("key", ["alpha_fixed", "x0_fixed"])
@pytest.mark.parametrize("value", [3.5, True, False, "5", F(7, 1)])
def test_rotation_numerators_must_be_ints(key, value):
    """A float, a bool or a string numerator is refused, not rounded or read as 1."""
    params = {"alpha_fixed": golden_alpha_fixed(128), "x0_fixed": 0, key: value}
    named = re.escape(f"{key} {value!r}")
    with pytest.raises(TypeError, match=named):
        ProcessSpec("rotation", params, 0)
    with pytest.raises(TypeError, match=named):
        rotation_spec(0, params["alpha_fixed"], params["x0_fixed"])


@pytest.mark.parametrize("alpha", [0, 1 << 128, -(3 << 128)])
def test_trajectory_family_by_a_whole_turn_raises(alpha):
    with pytest.raises(ValueError, match="0 mod 2"):
        trajectory_family(alpha, 5, 128)
    if alpha:
        assert trajectory_family(alpha, 5, 130).member(0)  # a half or quarter turn at 130 bits


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


def doubling_reference(seed, count, precision):
    """Points from one integer of joined stream words, shifted per point."""
    words = -(-(count + precision) // 64)
    stream = 0
    for k in range(words):
        stream = (stream << 64) | fixed_uniform(seed, DOMAIN_DOUBLING, k, 64)
    total, mask = 64 * words, (1 << precision) - 1
    return [(stream >> (total - i - precision)) & mask for i in range(1, count + 1)]


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 300), PRECISIONS)
def test_doubling_path_and_bits_match_joined_stream_across_word_seams(seed, count, precision):
    points = doubling_reference(seed, count, precision)
    assert list(generate(doubling_spec(seed, precision), count).fixed) == points


@pytest.mark.parametrize(
    "spec",
    [
        iid_spec(12),
        rotation_spec(seed=0, x0_fixed=17),
        doubling_spec(5, 200),
        markov_spec([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]], ["[0,1/4) u [1/2,3/4)", "[1/4,1/2) u [3/4,1)"], 9, 65),
    ],
    ids=lambda spec: spec.kind,
)
@pytest.mark.parametrize("n, big", [(1, 64), (63, 200), (64, 65), (129, 130)])
def test_every_kind_is_prefix_stable_across_block_boundaries(spec, n, big):
    assert generate(spec, n).fixed == generate(spec, big).fixed[:n]


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


def markov_reference(spec, count):
    """The Markov path in Fraction arithmetic: cumulative-row pick, part-walk emit."""
    scale = 1 << spec.precision
    matrix, cells = spec.params["matrix"], spec.params["cells"]

    def pick(dist, index):
        u = F(fixed_uniform(spec.seed, DOMAIN_MARKOV_STATE, index, spec.precision), scale)
        acc = F(0)
        for s, p in enumerate(dist):
            acc += p
            if u < acc:
                return s

    def emit(cell, index):
        v = F(fixed_uniform(spec.seed, DOMAIN_MARKOV_EMIT, index, spec.precision), scale)
        pos = v * cell.measure
        for part in cell.parts:
            if pos < part.length:
                return math.floor((part.lo + pos) * scale)
            pos -= part.length

    state = pick(stationary_distribution(matrix), 0)
    out = []
    for i in range(1, count + 1):
        state = pick(matrix[state], i)
        out.append(emit(cells[state], i))
    return out


@st.composite
def markov_chains(draw):
    """(matrix, cells): positive rational rows; each cell a union of grid slots."""
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(1, 6), min_size=n, max_size=n)
    matrix = [[F(w, sum(r)) for w in r] for r in draw(st.lists(row, min_size=n, max_size=n))]
    den = draw(st.sampled_from([6, 10, 12, 16, 21, 32]))
    extra = draw(st.lists(st.integers(0, n - 1), min_size=den - n, max_size=den - n))
    owner = draw(st.permutations(list(range(n)) + extra))
    cells = [
        normalize([(F(j, den), F(j + 1, den)) for j in range(den) if owner[j] == s])
        for s in range(n)
    ]
    return matrix, cells


@settings(max_examples=40, deadline=None)
@given(
    markov_chains(),
    st.sampled_from([64, 128, 200]),
    st.integers(0, 2**64 - 1),
    st.integers(1, 200),
)
def test_markov_path_matches_fraction_reference(chain, precision, seed, count):
    spec = markov_spec(*chain, seed=seed, precision=precision)
    assert list(generate(spec, count).fixed) == markov_reference(spec, count)


def test_sorted_fixed_is_sorted_prefix():
    path = generate(iid_spec(2), 64)
    s = path.sorted_fixed(40)
    assert s == sorted(path.fixed[:40])


@pytest.mark.parametrize(
    "order",
    [[1, 5, 17, 64], [64, 17, 5, 1], [17, 17, 5, 5, 64, 64, 1], [5, 64, 1, 40, 40, 3, 64]],
    ids=["ascending", "descending", "repeated", "mixed"],
)
def test_sorted_fixed_keeps_one_prefix_and_never_mutates_a_returned_list(order):
    # Points at 2**-8 steps repeat, so the merge of the kept prefix and the
    # next points sees ties.
    path = SamplePath.from_values([F(i * 37 % 256 // 4, 256) for i in range(64)])
    handed_out = []
    for m in order:
        s = path.sorted_fixed(m)
        assert s == sorted(path.fixed[:m])
        handed_out.append((m, s))
    for m, s in handed_out:
        assert s == sorted(path.fixed[:m])


def test_point_and_points_views():
    path = generate(iid_spec(2), 8)
    assert path.points() == [F(n, 1 << path.precision) for n in path.fixed]


# -- orbit atoms ---------------------------------------------------------------------


def test_atom_set_measure_zero_api():
    a = AtomSet([1, 5, 9, 5], precision=7)
    assert a.measure == 0
    assert a.is_empty is False
    assert len(a) == 3
    assert F(5, 128) in a
    assert F(6, 128) not in a
    assert count_in(a.thresholds(7), [0, 1, 5, 64]) == 2


def test_trajectory_family_windows_nest_and_count():
    fam = trajectory_family(golden_alpha_fixed(128), 0, 128, window=3)
    m0, m1 = fam.member(0), fam.member(1)
    assert len(m0) == 7 and len(m1) == 13
    assert all(F(n, 1 << 128) in m1 for n in m0.fixed)


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
