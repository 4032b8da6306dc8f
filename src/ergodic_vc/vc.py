"""Shatter coefficients, VC dimension search, joins and witness extraction.

Everything here is finite and exact: families are evaluated on explicit
point grids, traces are deduplicated bit masks, and the dimension search is
an exhaustive scan over subsets of the grid. Results are therefore relative
to the supplied grid and budget, which the caller chooses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ResourceLimitError
from .intervals import Interval, IntervalUnion, SetFamily


@dataclass(frozen=True)
class TraceTable:
    """Membership of each point in each of the first ``budget`` members.

    ``rows[j]`` is a bit mask over points for member j (bit t set when
    points[t] lies in the member).
    """

    points: tuple
    rows: tuple[int, ...]
    budget: int

    def distinct_rows(self) -> frozenset[int]:
        return frozenset(self.rows)


def trace_table(points, fam: SetFamily, upto: int) -> TraceTable:
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError("duplicate points in ground set")
    rows = []
    for member in fam.members(upto):
        mask = 0
        for t, x in enumerate(points):
            if x in member:
                mask |= 1 << t
        rows.append(mask)
    return TraceTable(points, tuple(rows), upto)


def shatter_coefficient(points, fam: SetFamily, upto: int) -> int:
    """Number of distinct subsets of ``points`` picked out by the family."""
    if not points:
        raise ValueError("ground set must be nonempty")
    return len(trace_table(points, fam, upto).distinct_rows())


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


def _shatters(masks, idxs) -> bool:
    want = 1 << len(idxs)
    seen = set()
    for mask in masks:
        pattern = 0
        for t, i in enumerate(idxs):
            if mask >> i & 1:
                pattern |= 1 << t
        seen.add(pattern)
        if len(seen) == want:
            return True
    return False


def vc_dimension(fam: SetFamily, upto: int, grid, max_k: int) -> VcDimension:
    """Exhaustive dimension search relative to ``grid`` and member budget.

    Scans subset sizes upward; stops at the first size with no shattered
    subset. Distinct membership rows are deduplicated first, which keeps the
    scan tractable for large budgets.
    """
    grid = tuple(grid)
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    table = trace_table(grid, fam, upto)
    masks = sorted(table.distinct_rows())
    dim, witness = 0, ()
    for k in range(1, min(max_k, len(grid)) + 1):
        if len(masks) < (1 << k):
            return VcDimension(dim, witness, False)
        found = None
        for idxs in combinations(range(len(grid)), k):
            if _shatters(masks, idxs):
                found = idxs
                break
        if found is None:
            return VcDimension(dim, witness, False)
        dim, witness = k, tuple(grid[i] for i in found)
    return VcDimension(dim, witness, dim == max_k)


def union_family(name: str, *fams: SetFamily) -> SetFamily:
    """Concatenated family enumerating each argument in turn (finite only)."""
    sizes = []
    for f in fams:
        if f.size is None:
            raise ValueError("union_family requires finite families")
        sizes.append(f.size)

    def member(i: int):
        for f, s in zip(fams, sizes):
            if i < s:
                return f.member(i)
            i -= s
        raise IndexError(i)

    return SetFamily(name, member, sum(sizes))


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


def _split_pairs(parts, cparts):
    """Split sorted disjoint (lo, hi) pairs by another such list.

    Returns (inside, outside) pair lists. Both inputs are canonical
    (sorted, pairwise non-touching), so output segments within one part are
    separated by the opposite kind and never touch; plain appends keep the
    outputs canonical.
    """
    inside: list = []
    outside: list = []
    ci = 0
    nc = len(cparts)
    for lo, hi in parts:
        cur = lo
        while ci < nc and cparts[ci][1] <= cur:
            ci += 1
        j = ci
        while cur < hi:
            if j < nc and cparts[j][0] <= cur:
                end = cparts[j][1]
                if end <= hi:
                    inside.append((cur, end))
                    cur = end
                    j += 1
                else:
                    inside.append((cur, hi))
                    cur = hi
            elif j < nc and cparts[j][0] < hi:
                outside.append((cur, cparts[j][0]))
                cur = cparts[j][0]
            else:
                outside.append((cur, hi))
                cur = hi
    return inside, outside


def join(sets, cap: int = 20) -> JoinPartition:
    """Common refinement of the sets into sign-labelled cells.

    Cells partition [0, 1) exactly; empty cells are dropped. ``cap`` bounds
    the number of input sets, since the cell count can reach 2**len(sets).
    The refinement sweeps raw endpoint pairs and only materializes interval
    objects for the final cells, which keeps large joins affordable.
    """
    sets = tuple(sets)
    if len(sets) > cap:
        raise ResourceLimitError(f"join of {len(sets)} sets exceeds cap {cap}")
    raw = {0: [(Fraction(0), Fraction(1))]}
    for j, s in enumerate(sets):
        cparts = [(p.lo, p.hi) for p in s.parts]
        refined: dict[int, list] = {}
        for mask, parts in raw.items():
            inside, outside = _split_pairs(parts, cparts)
            if inside:
                refined[mask | (1 << j)] = inside
            if outside:
                refined[mask] = outside
        raw = refined
    cells = {
        mask: IntervalUnion(tuple(Interval(lo, hi) for lo, hi in parts))
        for mask, parts in raw.items()
    }
    return JoinPartition(sets, cells)


def is_shattered(points, sets) -> bool:
    """Direct check: the sets pick out every subset of ``points``."""
    want = 1 << len(points)
    seen = set()
    for s in sets:
        pattern = 0
        for t, x in enumerate(points):
            if x in s:
                pattern |= 1 << t
        seen.add(pattern)
    return len(seen) == want


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

