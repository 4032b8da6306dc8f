"""Named set families used throughout the demos, CLI and tests.

All enumerations are deterministic functions of the index, so a budget
identifies the same finite subfamily on every run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .intervals import Interval, IntervalUnion, SetFamily


def dyadic_class(max_order: int) -> SetFamily:
    """Every dyadic interval of order 1..max_order, enumerated order-major.

    Mixing orders makes nested intervals available, so the class has
    dimension two over fine enough grids.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    sizes = [1 << o for o in range(1, max_order + 1)]

    def member(i: int) -> IntervalUnion:
        for o, s in enumerate(sizes, start=1):
            if i < s:
                den = 1 << o
                return IntervalUnion((Interval(Fraction(i, den), Fraction(i + 1, den)),))
            i -= s
        raise IndexError(i)

    return SetFamily(f"dyadic({max_order})", member, sum(sizes))


def half_interval_class() -> SetFamily:
    """Prefixes [0, t) over dyadic t, enumerated by order then numerator.

    The enumeration is 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ... (odd
    numerators only, so each prefix appears once). Countable, size None.
    """

    def member(i: int) -> IntervalUnion:
        order = 1
        while i >= (1 << (order - 1)):
            i -= 1 << (order - 1)
            order += 1
        t = Fraction(2 * i + 1, 1 << order)
        return IntervalUnion((Interval(Fraction(0), t),))

    return SetFamily("half-intervals", member, None)


def _unrank_combination(n: int, k: int, rank: int) -> list[int]:
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


def k_interval_class(k: int, order: int) -> SetFamily:
    """Unions of at most k disjoint intervals with order-``order`` dyadic ends.

    Member 0 is the empty union; the rest enumerate, for t = 1..k, every
    choice of 2t distinct endpoints from {j / 2**order} paired left to right.
    Distinct endpoint choices give distinct normalized unions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_endpoints = (1 << order) + 1
    counts = [comb(n_endpoints, 2 * t) for t in range(1, k + 1)]
    den = 1 << order

    def member(i: int) -> IntervalUnion:
        if i == 0:
            return IntervalUnion()
        i -= 1
        for t, c in enumerate(counts, start=1):
            if i < c:
                idxs = _unrank_combination(n_endpoints, 2 * t, i)
                parts = tuple(
                    Interval(Fraction(idxs[2 * j], den), Fraction(idxs[2 * j + 1], den))
                    for j in range(t)
                )
                return IntervalUnion(parts)
            i -= c
        raise IndexError(i)

    return SetFamily(f"k-intervals({k},order={order})", member, 1 + sum(counts))


def subset_indexed_sets(k: int) -> list[IntervalUnion]:
    """2**k sets over the order-2**k dyadic grid whose join is full.

    Cell j of the grid (j = 0 .. 2**(2**k) - 1) is placed in set u exactly
    when bit u of j is set, so the cells realize every sign pattern and a
    point of cell j lies in set u iff bit u of j is set. Feasible for
    k <= 4; the k = 4 instance already has 65536 cells.
    """
    if not 1 <= k <= 4:
        raise ValueError("subset-indexed construction supports 1 <= k <= 4")
    n_sets = 1 << k
    n_cells = 1 << n_sets
    den = Fraction(1, n_cells)
    sets = []
    for u in range(n_sets):
        pairs = []
        start = None
        for j in range(n_cells + 1):
            inside = j < n_cells and (j >> u) & 1
            if inside and start is None:
                start = j
            elif not inside and start is not None:
                pairs.append(Interval(start * den, j * den))
                start = None
        sets.append(IntervalUnion(tuple(pairs)))
    return sets


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

    def runs(mask: int) -> int:
        r = 0
        prev = 0
        for t in range(n):
            bit = mask >> t & 1
            if bit and not prev:
                r += 1
            prev = bit
        return r

    masks = [m for m in range(1 << n) if runs(m) <= k]

    def member(i: int) -> IntervalUnion:
        mask = masks[i]
        parts = []
        t = 0
        while t < n:
            if mask >> t & 1:
                start = t
                while t < n and mask >> t & 1:
                    t += 1
                parts.append(Interval(bounds[start], bounds[t]))
            else:
                t += 1
        return IntervalUnion(tuple(parts))

    return SetFamily(f"run-patterns({k},n={n})", member, len(masks))
