"""Stagewise straightening maps: piecewise translations built from a filtration.

The stage-n map of C_1..C_n sends each cell A of their join (``vc.join``)
onto a half-open block [beta_A, beta_A + lambda(A)), translating each of
A's intervals in turn, so it is exactly measure preserving. Blocks follow
join order: cells are sorted by their signs on C_1, then C_2, and so on,
inside before outside. Stage 1 therefore sends C_1 to the prefix
[0, lambda(C_1)), and the block of a stage-n cell A splits into the blocks
of A n C_{n+1} followed by A n C_{n+1}^c at stage n + 1.

A map keeps one integer row (lo, hi, shift) per cell part over one
denominator, read by ``intervals.rescaled``; one tiling check validates the
rows and their inverse, and points, images and preimages bisect them.

The classical doubling example: with C_i the union of the even order-(i+1)
dyadic intervals, the stage-n map differs from x -> 2x mod 1 by at most half
the cell measure, 2**-(n+1), and by exactly that at x = 1/2, so its sup over
any dyadic grid is exactly half the cell measure. ``doubling_deviation``
computes that sup by one integer walk of the map's rows against the grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intervals import IntervalUnion, from_pairs, rescaled
from .vc import join


@dataclass(frozen=True)
class Piece:
    """One cell of the current join with the offset of its image block."""

    source: IntervalUnion
    beta: Fraction


class PiecewiseTranslation:
    """Invertible rearrangement of [0, 1) by translations of interval parts.

    ``pieces`` hold stage cells in image order. The table's row (lo, hi,
    shift) moves the cell part [lo/den, hi/den) by shift/den, den being the
    cells' common denominator; every ``beta`` lies on that grid, as the
    blocks tile [0, 1). The table drives points and images, its inverse
    preimages, and one check that rows tile [0, den) validates both.
    Instances are immutable.
    """

    __slots__ = ("pieces", "stage", "_den", "_table", "_inverse")

    def __init__(self, pieces, stage: int):
        pieces = tuple(pieces)
        den, ends = rescaled([p.source for p in pieces])
        table = []
        for p, e in zip(pieces, ends):
            at, off = divmod(p.beta.numerator * den, p.beta.denominator)
            if off:
                raise ValueError(f"block offset {p.beta} is off the cells' grid 1/{den}")
            for lo, hi in zip(e[::2], e[1::2]):
                table.append((lo, hi, at - lo))
                at += hi - lo
        table.sort()
        inverse = sorted((lo + s, hi + s, -s) for lo, hi, s in table)
        for rows in (table, inverse):
            if [lo for lo, _, _ in rows] + [den] != [0] + [hi for _, hi, _ in rows]:
                raise ValueError("cells and their image blocks must each tile [0, 1)")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_table", tuple(table))
        object.__setattr__(self, "_inverse", tuple(inverse))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PiecewiseTranslation is immutable")

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError(f"point {x} outside [0, 1)")
        # The row holding x is the last one whose lo is <= floor(x * den).
        n = x.numerator * self._den // x.denominator
        return x + Fraction(self._table[bisect_left(self._table, (n + 1,)) - 1][2], self._den)

    __call__ = apply

    def image(self, u: IntervalUnion) -> IntervalUnion:
        """Exact forward image of a union (valid for any union)."""
        return _translate(self._table, self._den, u)

    def preimage(self, u: IntervalUnion) -> IntervalUnion:
        """Exact preimage of a union, by the inverse table."""
        return _translate(self._inverse, self._den, u)


def _translate(rows, den: int, u: IntervalUnion) -> IntervalUnion:
    """Shift each part of ``u`` by the rows over ``den`` that it meets.

    The rows (lo, hi, shift) tile [0, den) in order, so each part starts at
    the row holding its left end and steps through the following rows, all
    over D = lcm(den, u's den), where a row end scales by D // den.
    """
    D, (ends,) = rescaled([u], den)
    k = D // den
    pairs = []
    for a, b in zip(ends[::2], ends[1::2]):
        i = bisect_left(rows, (a // k + 1,)) - 1
        while i < len(rows) and rows[i][0] * k < b:
            lo, hi, shift = rows[i]
            pairs.append((max(a, lo * k) + shift * k, min(b, hi * k) + shift * k))
            i += 1
    return from_pairs(D, pairs)


def _stage_key(mask: int, n: int) -> int:
    """Sort key for stage order: the bit-reversed complement of the n-bit mask.

    Bit j of a join mask is set when the cell lies inside C_{j+1}. Reversal
    puts C_1's bit on top, and the complement sorts inside before outside.
    """
    return int(f"{mask:0{n}b}"[::-1], 2) ^ ((1 << n) - 1)


def build_map(sets) -> PiecewiseTranslation:
    """Stage-n map of the filtration C_1..C_n given as ``sets``.

    The join cells are packed in stage order: at stage j the cell inside
    C_j precedes the one outside it, with C_1 deciding first, and each
    cell's block starts at the total measure of the cells before it,
    summed as an integer over the cells' common denominator.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    n = len(sets)
    cells = join(sets).cells
    order = sorted(cells, key=lambda mask: _stage_key(mask, n))
    den, ends = rescaled([cells[mask] for mask in order])
    pieces = []
    at = 0
    for mask, e in zip(order, ends):
        pieces.append(Piece(cells[mask], Fraction(at, den)))
        at += sum(e[1::2]) - sum(e[::2])
    return PiecewiseTranslation(pieces, n)


def image_of_union(
    phi: PiecewiseTranslation, c: IntervalUnion
) -> tuple[IntervalUnion, IntervalUnion]:
    """Image of a cell-aligned union and its straightened block form.

    ``c`` must be a union of whole stage cells. Returns (image, blocks)
    where blocks is the union of [beta, beta + lambda(A)) over the covered
    cells; for a piecewise translation these are equal as sets, which the
    caller can confirm via the symmetric difference.

    One bisect into c's ends puts each cell part inside c, outside it, or
    split by an end of c; a cell is aligned when all its parts agree, and as
    the cells partition [0, 1), c is then the union of those inside it.
    """
    D, (ends, *sources) = rescaled([c, *(p.source for p in phi.pieces)])
    blocks = []
    for p, e in zip(phi.pieces, sources):
        sides = set()
        for a, b in zip(e[::2], e[1::2]):
            i = bisect_right(ends, a)
            sides.add(2 if i < len(ends) and ends[i] < b else i % 2)
        if sides == {1}:
            lo = p.beta.numerator * (D // p.beta.denominator)
            blocks.append((lo, lo + sum(e[1::2]) - sum(e[::2])))
        elif sides - {0}:
            raise ValueError("set is not aligned with the stage cells")
    return phi.image(c), from_pairs(D, blocks)


def measure_preservation_defect(phi: PiecewiseTranslation, probes) -> Fraction:
    """max |lambda(preimage(B)) - lambda(B)| over probe unions (0 if exact)."""
    return max((abs(phi.preimage(b).measure - b.measure) for b in probes), default=Fraction(0))


# -- the doubling example ------------------------------------------------------


def doubling_comb(i: int) -> IntervalUnion:
    """Union of the even order-(i+1) dyadic intervals (fixes binary digit i+1)."""
    if i < 1:
        raise ValueError("stage index starts at 1")
    return IntervalUnion.from_ends(1 << (i + 1), range(1 << (i + 1)))


def doubling_map(n: int) -> PiecewiseTranslation:
    """Stage-n straightening of the digit filtration behind x -> 2x mod 1."""
    return build_map([doubling_comb(i) for i in range(1, n + 1)])


def doubling_deviation(phi: PiecewiseTranslation, probe_order: int = 10) -> Fraction:
    """sup over the order-``probe_order`` dyadic grid of |phi(x) - 2x mod 1|.

    One walk of phi's rows (lo, hi, shift) over den against the grid, all
    over D = lcm(den, 2**probe_order): grid point k / 2**probe_order is
    k * step with step = D >> probe_order, a row scales by r = D // den, and
    a point x of a row moves to x + shift * r, while 2x mod 1 is 2x mod D.
    """
    D = lcm(phi._den, 1 << probe_order)
    r, step = D // phi._den, D >> probe_order
    best = 0
    for lo, hi, shift in phi._table:
        s = shift * r
        for x in range(-(-lo * r // step) * step, hi * r, step):
            d = abs(x + s - 2 * x % D)
            if d > best:
                best = d
    return Fraction(best, D)


def doubling_map_deviation(n: int, probe_order: int = 10) -> Fraction:
    """sup over the order-``probe_order`` dyadic grid of |phi_n(x) - 2x mod 1|."""
    return doubling_deviation(doubling_map(n), probe_order)
