"""Shatter coefficients, VC dimension search, joins and witness extraction.

Everything here is finite and exact: families are evaluated on explicit
point grids, traces are deduplicated bit masks read by ``intervals.traces``
(one row per member, from the ranks of its ends among the sorted grid), and
the dimension search is a depth-first search that extends only shattered
subsets of the grid. The search keeps one member per distinct trace, reads
membership by columns (per point, the bit mask of those traces that contain
it) and keeps, per shattered set, one trace mask per pattern. Results are
therefore relative to the supplied grid and budget, which the caller
chooses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import ResourceLimitError
from .intervals import IntervalUnion, SetFamily, from_sweep, segments, traces


def _distinct(points) -> tuple:
    points = tuple(points)
    # Integer pairs hash faster than Fractions; as_integer_ratio is in lowest terms.
    if len({x.as_integer_ratio() for x in points}) != len(points):
        raise ValueError("duplicate points in ground set")
    return points


def shatter_coefficient(points, fam: SetFamily, upto: int) -> int:
    """Number of distinct subsets of ``points`` picked out by the family."""
    if not points:
        raise ValueError("ground set must be nonempty")
    return len(set(traces(_distinct(points), fam.members(upto))[1]))


@dataclass(frozen=True)
class SauerBound:
    exact: int
    poly: int


def sauer_bound(m: int, v: int) -> SauerBound:
    """sum_{j<=v} C(m, j) and the cruder (m+1)**v, for m >= v >= 0."""
    if v < 0 or m < v:
        raise ValueError(f"need m >= v >= 0, got m={m}, v={v}")
    return SauerBound(sum(comb(m, j) for j in range(v + 1)), (m + 1) ** v)


@dataclass(frozen=True)
class VcDimension:
    """Largest shattered subset size found, with one witness.

    ``at_cap`` means every size up to ``max_k`` was shattered, so ``dim`` is
    only a lower bound.
    """

    dim: int
    witness: tuple
    at_cap: bool

    def __str__(self) -> str:
        prefix = ">= " if self.at_cap else ""
        return f"{prefix}{self.dim}"


# Rows per block of toggle masks: ints of up to about 8,000 bits beat one
# bytearray per rank, and whole blocks keep the build linear.
_BLOCK = 4096


def _columns(order: list[int], rows: list[int]) -> list[int]:
    """Per point, in grid order, the mask of the rows that contain it.

    ``order`` and ``rows`` are as ``intervals.traces`` returns them. A row
    over the sorted points toggles where it differs from its shift by one,
    so each sorted rank gets one mask of the rows toggling there, and the
    columns are the prefix XORs of those masks. The masks are built in
    blocks of ``_BLOCK`` rows, since setting bit j of an int of u bits costs
    about u / 30 words, which would make one int per rank quadratic in u.
    """
    n = len(order)
    below_n = (1 << n) - 1
    flips = [0] * n
    for base in range(0, len(rows), _BLOCK):
        block = [0] * n
        for j, row in enumerate(rows[base : base + _BLOCK]):
            toggles = (row ^ row << 1) & below_n
            while toggles:
                r = toggles.bit_length() - 1
                block[r] ^= 1 << j
                toggles ^= 1 << r
        flips = [f | mask << base for f, mask in zip(flips, block)]
    cols = [0] * n
    col = 0
    for s, i in enumerate(order):
        col ^= flips[s]
        cols[i] = col
    return cols


def vc_dimension(fam: SetFamily, upto: int, grid, max_k: int) -> VcDimension:
    """Depth-first dimension search relative to ``grid`` and member budget.

    The members' rows come from ``intervals.traces``, as in
    ``shatter_coefficient``, and only the u distinct ones are kept: the
    dimension, the witness and ``at_cap`` depend on nothing else. Bit j of
    ``cols[t]`` is set when trace j contains grid[t] (``_columns``).

    A shattered point set keeps its cells: per pattern on the set, the mask
    of traces that cut that pattern, all nonempty; the empty set has one
    cell holding every trace. Point i with column c extends the set exactly
    when every cell g splits, 0 != g & c != g, and the child's cells, built
    in the same pass, are g & c and g & ~c. Shattered sets are closed under
    subsets, so the search extends only shattered sets, adding points in
    index order, and stops at the first set of size min(max_k, len(grid)).
    It meets the sets of each size in lexicographic order, so the witness is
    the first shattered set of the largest size.

    Cells are disjoint and nonempty, so a set of size d has 2**d <= u cells,
    and the search path holds at most 2 * u cells of at most u bits each:
    u**2 / 4 bytes, with u <= min(upto, 2**len(grid)).
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    grid = _distinct(grid)
    order, rows = traces(grid, fam.members(upto))
    rows = list(dict.fromkeys(rows))
    cols = _columns(order, rows)
    n, u = len(grid), len(rows)
    top = min(max_k, n)
    best = ()

    def extend(cells: list, idxs: tuple) -> bool:
        nonlocal best
        if len(idxs) > len(best):
            best = idxs
        if len(best) == top:
            return True
        for i in range(idxs[-1] + 1 if idxs else 0, n):
            c = cols[i]
            split = []
            for g in cells:
                h = g & c
                if not h or h == g:
                    break
                split += (h, g ^ h)
            else:
                if extend(split, idxs + (i,)):
                    return True
        return False

    extend([(1 << u) - 1], ())
    dim = len(best)
    return VcDimension(dim, tuple(grid[i] for i in best), dim == max_k)


def union_family(name: str, *fams: SetFamily) -> SetFamily:
    """Concatenated family enumerating each argument in turn (finite only)."""
    if any(f.size is None for f in fams):
        raise ValueError("union_family requires finite families")
    return SetFamily.of(name, (m for f in fams for m in f.members(f.size)))


# -- joins -------------------------------------------------------------------


@dataclass(frozen=True)
class JoinPartition:
    """All nonempty cells of the join of ``sources``.

    ``cells`` maps a sign mask to a cell: bit j of the mask is set when the
    cell lies inside sources[j], clear when it lies in the complement.
    """

    sources: tuple[IntervalUnion, ...]
    cells: dict[int, IntervalUnion]

    @property
    def k(self) -> int:
        return len(self.sources)

    @property
    def is_full(self) -> bool:
        return len(self.cells) == 1 << self.k

    def total_measure(self) -> Fraction:
        return sum((c.measure for c in self.cells.values()), Fraction(0))


def join(sets, cap: int = 20) -> JoinPartition:
    """Common refinement of the sets into sign-labelled cells, by one sweep.

    Each segment of ``intervals.segments`` joins the cell of its mask.
    Neighbouring segments differ in mask, so each cell's parts come out
    sorted and non-touching, which lets ``from_sweep`` build the cells.

    Cells partition [0, 1) exactly; empty cells are absent. ``cap`` bounds
    the number of input sets, since the cell count can reach 2**len(sets).
    """
    sets = tuple(sets)
    if len(sets) > cap:
        raise ResourceLimitError(f"join of {len(sets)} sets exceeds cap {cap}")
    den, segs = segments(sets)
    raw: dict[int, list] = {}
    for lo, hi, mask in segs:
        raw.setdefault(mask, []).extend((lo, hi))
    cells = {mask: from_sweep(den, ends) for mask, ends in raw.items()}
    return JoinPartition(sets, cells)


def is_shattered(points, sets) -> bool:
    """Direct check: the sets pick out every subset of ``points``.

    A point set with a repeat is simply not shattered.
    """
    return len(set(traces(points, sets)[1])) == 1 << len(points)


def full_join_witness(jp: JoinPartition) -> tuple[Fraction, ...]:
    """Extract k points shattered by 2**k sets whose join is full.

    ``jp.sources`` must list the sets in subset order: source u is the set
    indexed by the subset of [k] whose characteristic bits are those of u.
    Point i is chosen inside the cell lying in exactly the sources whose
    index has bit i set, so point i lands in source u iff bit i of u is set.
    The result is verified shattered before being returned.
    """
    n = len(jp.sources)
    if n == 0 or n & (n - 1):
        raise ValueError(f"need 2**k sources, got {n}")
    k = n.bit_length() - 1
    if k == 0:
        raise ValueError("need k >= 1, got a single source set")
    if not jp.is_full:
        raise ValueError(
            f"join is not full: {len(jp.cells)} cells < {1 << n}"
        )
    points = []
    for i in range(k):
        target = 0
        for u in range(n):
            if u >> i & 1:
                target |= 1 << u
        cell = jp.cells[target]
        first = cell.parts[0]
        points.append((first.lo + first.hi) / 2)
    if not is_shattered(points, jp.sources):
        raise AssertionError("witness points not shattered; join inconsistent")
    return tuple(points)

