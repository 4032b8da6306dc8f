"""Stagewise straightening maps: exactness, alignment, the doubling example."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ergodic_vc import (
    IntervalUnion,
    PiecewiseTranslation,
    build_map,
    doubling_comb,
    doubling_deviation,
    doubling_map,
    doubling_map_deviation,
    image_of_union,
    iu,
    measure_preservation_defect,
    normalize,
)
from ergodic_vc.isomorphism import _stage_key

F = Fraction


def rand_union(cells):
    return normalize([(F(j, 32), F(j + 1, 32)) for j in sorted(set(cells))])


def cell_strategy():
    return st.lists(st.integers(0, 31), min_size=1, max_size=10)


def probe_strategy():
    return st.lists(cell_strategy(), min_size=1, max_size=4)


# -- construction and evaluation ---------------------------------------------------


def test_initial_map_sends_set_to_prefix():
    c = iu("[1/4,1/2) u [3/4,1)")
    phi = build_map([c])
    assert phi.stage == 1
    assert phi.image(c) == iu("[0,1/2)")
    assert phi.apply(F(1, 4)) == 0
    assert phi.apply(F(3, 4)) == F(1, 4)
    assert phi.apply(F(0)) == F(1, 2)


def test_stage_key_orders_like_the_per_bit_list_key():
    # The list form: C_1's bit decides first, and inside (bit set) sorts first.
    for n in range(1, 11):
        masks = range(1 << n)
        want = sorted(masks, key=lambda m: [not m >> j & 1 for j in range(n)])
        assert sorted(masks, key=lambda m: _stage_key(m, n)) == want


def test_refine_orders_inside_before_outside():
    phi2 = build_map([iu("[1/2,1)"), iu("[3/4,1)")])
    assert phi2.stage == 2
    assert phi2.image(iu("[3/4,1)")) == iu("[0,1/4)")
    assert phi2.image(iu("[1/2,3/4)")) == iu("[1/4,1/2)")


@settings(max_examples=40, deadline=None)
@given(st.lists(cell_strategy(), min_size=2, max_size=5))
def test_next_stage_splits_each_block_inside_first(set_cells):
    sets = [rand_union(cells) for cells in set_cells]
    for n in range(1, len(sets)):
        c = sets[n]
        want = []
        for p in build_map(sets[:n]).pieces:
            inside, outside = p.source.intersect(c), p.source.difference(c)
            if not inside.is_empty:
                want.append((inside, p.beta))
            if not outside.is_empty:
                want.append((outside, p.beta + inside.measure))
        assert [(q.source, q.beta) for q in build_map(sets[: n + 1]).pieces] == want


def test_map_is_bijection_on_probe_points():
    phi = build_map([iu("[1/3,2/3)"), iu("[0,1/2)")])
    xs = [F(k, 24) for k in range(24)]
    ys = sorted(phi.apply(x) for x in xs)
    assert len(set(ys)) == 24


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        PiecewiseTranslation([], 1)
    from ergodic_vc.isomorphism import Piece

    with pytest.raises(ValueError):
        PiecewiseTranslation([Piece(iu("[0,1/2)"), F(0))], 1)
    with pytest.raises(ValueError):
        PiecewiseTranslation(
            [Piece(iu("[0,1/2)"), F(0)), Piece(iu("[1/2,1)"), F(1, 4))], 1
        )
    with pytest.raises(ValueError):  # beta off the cells' grid of halves
        PiecewiseTranslation([Piece(iu("[0,1/2)"), F(1, 3)), Piece(iu("[1/2,1)"), F(0))], 1)
    with pytest.raises(ValueError):  # cells overlap on [1/4, 1/2), blocks still tile
        PiecewiseTranslation([Piece(iu("[0,1/2)"), F(0)), Piece(iu("[1/4,3/4)"), F(1, 2))], 1)


# -- exact measure preservation ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(probe_strategy(), probe_strategy())
def test_preimage_preserves_measure_exactly(set_cells, probe_cells):
    sets = [rand_union(cells) for cells in set_cells]
    phi = build_map(sets)
    probes = [rand_union(cells) for cells in probe_cells]
    assert measure_preservation_defect(phi, probes) == 0


@settings(max_examples=40, deadline=None)
@given(probe_strategy(), cell_strategy())
def test_image_and_preimage_invert(set_cells, u_cells):
    sets = [rand_union(cells) for cells in set_cells]
    phi = build_map(sets)
    u = rand_union(u_cells)
    assert phi.preimage(phi.image(u)) == u
    assert phi.image(phi.preimage(u)) == u


@settings(max_examples=30, deadline=None)
@given(probe_strategy(), st.data())
def test_cell_aligned_images_are_blocks(set_cells, data):
    sets = [rand_union(cells) for cells in set_cells]
    phi = build_map(sets)
    picks = data.draw(
        st.lists(st.integers(0, len(phi.pieces) - 1), min_size=1, unique=True)
    )
    aligned = IntervalUnion()
    for i in picks:
        aligned = aligned.union(phi.pieces[i].source)
    image, blocks = image_of_union(phi, aligned)
    assert image.symmetric_difference(blocks).measure == 0
    assert image.measure == aligned.measure


def mixed_union(den, cells):
    return normalize([(F(j, den), F(j + 1, den)) for j in sorted({j % den for j in cells})])


def mixed_union_strategy():
    dens = st.sampled_from([32, 64, 96, 80, 63])
    return st.tuples(dens, st.lists(st.integers(0, 95), max_size=8))


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_union_strategy(), min_size=1, max_size=4), st.data())
def test_image_of_union_raises_exactly_on_split_cells(set_specs, data):
    phi = build_map([mixed_union(den, cells) for den, cells in set_specs])
    n = len(phi.pieces)
    picks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = normalize([(q.lo, q.hi) for p, on in zip(phi.pieces, picks) if on for q in p.source.parts])
    if data.draw(st.booleans()):
        c = c ^ mixed_union(*data.draw(mixed_union_strategy()))
    split = any(0 < (p.source & c).measure < p.source.measure for p in phi.pieces)
    if split:
        with pytest.raises(ValueError):
            image_of_union(phi, c)
        return
    image, blocks = image_of_union(phi, c)
    covered = [p for p in phi.pieces if (p.source & c) == p.source]
    assert blocks == normalize([(p.beta, p.beta + p.source.measure) for p in covered])
    assert image == phi.image(c)


def test_unaligned_set_rejected():
    phi = build_map([iu("[0,1/2)")])
    with pytest.raises(ValueError):
        image_of_union(phi, iu("[0,1/4)"))


# -- the doubling example ------------------------------------------------------------


def test_doubling_comb_structure():
    c1 = doubling_comb(1)
    assert c1 == iu("[0,1/4) u [1/2,3/4)")
    assert doubling_comb(2).measure == F(1, 2)
    with pytest.raises(ValueError):
        doubling_comb(0)


def test_doubling_map_matches_two_x_on_coarse_grid():
    phi = doubling_map(6)
    for k in range(0, 64, 3):
        x = F(k, 64)
        assert abs(phi.apply(x) - (2 * x) % 1) <= F(1, 32)


def test_doubling_deviation_frozen_stage8():
    assert doubling_map_deviation(8, probe_order=10) == F(1, 512)


def test_doubling_deviation_within_stated_rate():
    for n in range(1, 13):
        phi = doubling_map(n)
        for probe_order in (10, 14):
            assert doubling_deviation(phi, probe_order) == F(1, 1 << (n + 1))


def reference_deviation(phi, probe_order):
    """The per-point form: one Fraction per grid point, through ``apply``."""
    den = 1 << probe_order
    grid = [Fraction(k, den) for k in range(den)]
    return max(abs(phi.apply(x) - 2 * x % 1) for x in grid)


def test_probe_walk_matches_per_point_reference():
    # Probe orders 1..12 give grids both coarser and finer than the cells.
    for n in range(1, 11):
        phi = doubling_map(n)
        for probe_order in range(1, 13):
            want = reference_deviation(phi, probe_order)
            assert doubling_deviation(phi, probe_order) == want
    assert doubling_map_deviation(6, 9) == reference_deviation(doubling_map(6), 9)


@settings(max_examples=40, deadline=None)
@given(st.lists(mixed_union_strategy(), min_size=1, max_size=4), st.integers(1, 8))
def test_probe_walk_matches_reference_off_dyadic_grids(set_specs, probe_order):
    # Cells on thirds, fifths and 63rds put the walk on D = lcm(den, 2**order).
    phi = build_map([mixed_union(den, cells) for den, cells in set_specs])
    assert doubling_deviation(phi, probe_order) == reference_deviation(phi, probe_order)
