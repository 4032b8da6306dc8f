"""Named set families used throughout the demos, CLI and tests.

All enumerations are deterministic functions of the index, so a budget
identifies the same finite subfamily on every run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, combinations, islice
from math import comb

from .intervals import EMPTY, IntervalUnion, SetFamily, from_sweep, normalize


def dyadic_class(max_order: int) -> SetFamily:
    """Every dyadic interval of order 1..max_order, enumerated order-major.

    Mixing orders makes nested intervals available, so the class has
    dimension two over fine enough grids.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")

    def member(i: int) -> IntervalUnion:
        # Orders before o hold 2 + 4 + .. + 2**(o-1) = 2**o - 2 members.
        order = (i + 2).bit_length() - 1
        j = i + 2 - (1 << order)
        return from_sweep(1 << order, (j, j + 1))

    return SetFamily(f"dyadic({max_order})", member, (2 << max_order) - 2)


def half_interval_class() -> SetFamily:
    """Prefixes [0, t) over dyadic t, enumerated by order then numerator.

    The enumeration is 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ... (odd
    numerators only, so each prefix appears once). Countable, size None.
    """

    def member(i: int) -> IntervalUnion:
        # Orders before o hold 1 + 2 + .. + 2**(o-2) = 2**(o-1) - 1 members.
        order = (i + 1).bit_length()
        return from_sweep(1 << order, (0, 2 * (i + 1 - (1 << (order - 1))) + 1))

    return SetFamily("half-intervals", member, None)


def k_interval_class(k: int, order: int) -> SetFamily:
    """Unions of at most k disjoint intervals with order-``order`` dyadic ends.

    Member 0 is the empty union; the rest enumerate, for t = 1..k, every
    choice of 2t distinct endpoints from {j / 2**order} paired left to right.
    Distinct endpoint choices give distinct normalized unions. A union of t
    runs takes 2t of the 2**order + 1 endpoints, so a k above 2**(order - 1)
    adds no member.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_endpoints = (1 << order) + 1
    den = 1 << order
    runs = min(k, n_endpoints // 2)
    # combinations() runs in lexicographic order, so members stream in index
    # order; the list grows at least twofold whenever a read lies beyond it.
    built = [EMPTY]
    ends = chain.from_iterable(combinations(range(n_endpoints), 2 * t) for t in range(1, runs + 1))
    stream = map(partial(from_sweep, den), ends)

    def member(i: int) -> IntervalUnion:
        if i >= len(built):
            built.extend(islice(stream, max(i + 1 - len(built), len(built))))
        return built[i]

    size = 1 + sum(comb(n_endpoints, 2 * t) for t in range(1, runs + 1))
    return SetFamily(f"k-intervals({k},order={order})", member, size)


def subset_indexed_sets(k: int) -> list[IntervalUnion]:
    """2**k sets over the order-2**k dyadic grid whose join is full.

    Cell j of the grid (j = 0 .. N - 1, N = 2**(2**k)) is placed in set u
    exactly when bit u of j is set, so the cells realize every sign pattern
    and a point of cell j lies in set u iff bit u of j is set. Those cells
    form the runs [(2t + 1) 2**u, (2t + 2) 2**u), so the ends of set u are
    the multiples of 2**u from 2**u to N, over N. Feasible for k <= 4; the
    k = 4 instance already has 65536 cells.
    """
    if not 1 <= k <= 4:
        raise ValueError("subset-indexed construction supports 1 <= k <= 4")
    n_sets = 1 << k
    n_cells = 1 << n_sets
    return [from_sweep(n_cells, range(1 << u, n_cells + 1, 1 << u)) for u in range(n_sets)]


def run_pattern_class(k: int, grid) -> SetFamily:
    """Canonical unions of <= k grid-point runs, one member per trace.

    For a sorted grid x_1 < ... < x_N, member masks enumerate every subset
    of the grid with at most k runs of consecutive points; the member is the
    union of [b_{i-1}, b_j) blocks, where b are midpoints between neighbours
    (0 and 1 at the edges). Useful as a compact stand-in for interval unions
    when only traces on the grid matter.
    """
    grid = tuple(sorted(grid))
    n = len(grid)
    if n == 0 or n > 20:
        raise ValueError("grid size must be in 1..20")
    bounds = [Fraction(0)]
    for a, b in zip(grid, grid[1:]):
        bounds.append((a + b) / 2)
    bounds.append(Fraction(1))

    # A mask of t runs is sum((1 << hi) - (1 << lo)) over 2t run boundaries;
    # sorted, the masks keep the ascending order of a scan over all 2**n.
    masks = sorted(
        sum((1 << hi) - (1 << lo) for lo, hi in zip(b[::2], b[1::2]))
        for t in range(min(k, (n + 1) // 2) + 1)  # n points hold at most (n + 1) // 2 runs
        for b in combinations(range(n + 1), 2 * t)
    )

    def member(i: int) -> IntervalUnion:
        mask = masks[i]
        return normalize((bounds[t], bounds[t + 1]) for t in range(n) if mask >> t & 1)

    return SetFamily(f"run-patterns({k},n={n})", member, len(masks))
