"""Stagewise straightening maps: piecewise translations built from a filtration.

Starting from a set C_1, the unit interval is rearranged so that C_1 maps
to the prefix [0, lambda(C_1)) and its complement to the suffix. Each
refinement step splits every current cell A by the next set C and packs
A n C before A n C^c inside A's image block. After n steps the cells of
the join of C_1..C_n map onto consecutive half-open blocks [beta,
beta + lambda(A)), and the map restricted to each cell is a translation
on each of its intervals, hence exactly measure preserving.

The classical doubling example: with C_i the union of the even order-(i+1)
dyadic intervals, the stage-n map agrees with x -> 2x mod 1 up to the cell
measure 2**-n; ``doubling_map_deviation`` checks this on a dyadic grid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .intervals import Interval, IntervalUnion, normalize, parse_union


@dataclass(frozen=True)
class Piece:
    """One cell of the current join with the offset of its image block."""

    source: IntervalUnion
    beta: Fraction


class PiecewiseTranslation:
    """Invertible rearrangement of [0, 1) by translations of interval parts.

    ``pieces`` hold stage cells in image order; a flattened translation
    table drives point evaluation and exact preimages. Instances are
    immutable.
    """

    __slots__ = ("pieces", "stage", "_table")

    def __init__(self, pieces, stage: int):
        pieces = tuple(pieces)
        total = sum((p.source.measure for p in pieces), Fraction(0))
        if total != 1:
            raise ValueError(f"cells must partition [0, 1); total measure {total}")
        betas = sorted((p.beta, p.beta + p.source.measure) for p in pieces)
        cursor = Fraction(0)
        for lo, hi in betas:
            if lo != cursor:
                raise ValueError("image blocks must tile [0, 1) without gaps")
            cursor = hi
        if cursor != 1:
            raise ValueError("image blocks must end at 1")
        table = []
        for p in pieces:
            acc = Fraction(0)
            for part in p.source.parts:
                table.append((part.lo, part.hi, p.beta + acc - part.lo))
                acc += part.length
        table.sort(key=lambda row: row[0])
        prev = Fraction(0)
        for lo, hi, _ in table:
            if lo != prev:
                raise ValueError("cells must partition [0, 1) without overlap")
            prev = hi
        if prev != 1:
            raise ValueError("cells must cover [0, 1)")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "_table", tuple(table))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PiecewiseTranslation is immutable")

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError(f"point {x} outside [0, 1)")
        i = bisect_right(self._table, x, key=lambda row: row[0]) - 1
        lo, hi, shift = self._table[i]
        if not lo <= x < hi:  # pragma: no cover - table validation forbids gaps
            raise AssertionError("translation table has a gap")
        return x + shift

    __call__ = apply

    def image(self, u: IntervalUnion) -> IntervalUnion:
        """Exact forward image of a union (valid for any union)."""
        pairs = []
        for lo, hi, shift in self._table:
            for part in u.parts:
                a, b = max(part.lo, lo), min(part.hi, hi)
                if a < b:
                    pairs.append((a + shift, b + shift))
        return normalize(pairs)

    def preimage(self, u: IntervalUnion) -> IntervalUnion:
        pairs = []
        for lo, hi, shift in self._table:
            ilo, ihi = lo + shift, hi + shift
            for part in u.parts:
                a, b = max(part.lo, ilo), min(part.hi, ihi)
                if a < b:
                    pairs.append((a - shift, b - shift))
        return normalize(pairs)

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "pieces": [
                {
                    "source": str(p.source),
                    "beta": f"{p.beta.numerator}/{p.beta.denominator}",
                }
                for p in self.pieces
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "PiecewiseTranslation":
        pieces = [
            Piece(parse_union(p["source"]), Fraction(p["beta"])) for p in obj["pieces"]
        ]
        return PiecewiseTranslation(pieces, int(obj["stage"]))


def initial_map(c1: IntervalUnion) -> PiecewiseTranslation:
    """Stage-1 map sending C_1 to [0, lambda(C_1)) and the rest after it."""
    pieces = []
    if not c1.is_empty:
        pieces.append(Piece(c1, Fraction(0)))
    rest = c1.complement()
    if not rest.is_empty:
        pieces.append(Piece(rest, c1.measure))
    return PiecewiseTranslation(pieces, 1)


def refine(phi: PiecewiseTranslation, c: IntervalUnion) -> PiecewiseTranslation:
    """Split every cell A into A n C before A n C^c inside A's image block."""
    pieces = []
    for p in phi.pieces:
        inside = p.source.intersect(c)
        outside = p.source.difference(c)
        if not inside.is_empty:
            pieces.append(Piece(inside, p.beta))
        if not outside.is_empty:
            pieces.append(Piece(outside, p.beta + inside.measure))
    return PiecewiseTranslation(pieces, phi.stage + 1)


def build_map(sets) -> PiecewiseTranslation:
    """Compose initial_map and refine over a list of sets."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    phi = initial_map(sets[0])
    for c in sets[1:]:
        phi = refine(phi, c)
    return phi


def image_of_union(
    phi: PiecewiseTranslation, c: IntervalUnion
) -> tuple[IntervalUnion, IntervalUnion]:
    """Image of a cell-aligned union and its straightened block form.

    ``c`` must be a union of whole stage cells. Returns (image, blocks)
    where blocks is the union of [beta, beta + lambda(A)) over the covered
    cells; for a piecewise translation these are equal as sets, which the
    caller can confirm via the symmetric difference.
    """
    image_pairs = []
    block_pairs = []
    covered = IntervalUnion()
    for p in phi.pieces:
        inter = p.source.intersect(c)
        if inter.is_empty:
            continue
        if inter != p.source:
            raise ValueError("set is not aligned with the stage cells")
        acc = Fraction(0)
        for part in p.source.parts:
            image_pairs.append((p.beta + acc, p.beta + acc + part.length))
            acc += part.length
        block_pairs.append((p.beta, p.beta + p.source.measure))
        covered = covered.union(p.source)
    if covered != c:
        raise ValueError("set is not a union of stage cells")
    return normalize(image_pairs), normalize(block_pairs)


def measure_preservation_defect(phi: PiecewiseTranslation, probes) -> Fraction:
    """max |lambda(preimage(B)) - lambda(B)| over probe unions (0 if exact)."""
    worst = Fraction(0)
    for b in probes:
        defect = abs(phi.preimage(b).measure - b.measure)
        if defect > worst:
            worst = defect
    return worst


# -- the doubling example ------------------------------------------------------


def doubling_comb(i: int) -> IntervalUnion:
    """Union of the even order-(i+1) dyadic intervals (fixes binary digit i+1)."""
    if i < 1:
        raise ValueError("stage index starts at 1")
    den = 1 << (i + 1)
    parts = tuple(
        Interval(Fraction(2 * j, den), Fraction(2 * j + 1, den)) for j in range(den // 2)
    )
    return IntervalUnion(parts)


def doubling_map(n: int) -> PiecewiseTranslation:
    """Stage-n straightening of the digit filtration behind x -> 2x mod 1."""
    return build_map([doubling_comb(i) for i in range(1, n + 1)])


def doubling_map_deviation(n: int, probe_order: int = 10) -> Fraction:
    """sup over the order-``probe_order`` dyadic grid of |phi_n(x) - 2x mod 1|."""
    phi = doubling_map(n)
    den = 1 << probe_order
    worst = Fraction(0)
    for k in range(den):
        x = Fraction(k, den)
        target = (2 * x) % 1
        d = abs(phi.apply(x) - target)
        if d > worst:
            worst = d
    return worst
