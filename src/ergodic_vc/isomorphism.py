"""Stagewise straightening maps: piecewise translations built from a filtration.

The stage-n map of C_1..C_n sends each cell A of their join (``vc.join``)
onto a half-open block [beta_A, beta_A + lambda(A)), translating each of
A's intervals in turn, so it is exactly measure preserving. Blocks follow
join order: cells are sorted by their signs on C_1, then C_2, and so on,
inside before outside. Stage 1 therefore sends C_1 to the prefix
[0, lambda(C_1)), and the block of a stage-n cell A splits into the blocks
of A n C_{n+1} followed by A n C_{n+1}^c at stage n + 1.

The classical doubling example: with C_i the union of the even order-(i+1)
dyadic intervals, the stage-n map agrees with x -> 2x mod 1 up to the cell
measure 2**-n; ``doubling_map_deviation`` checks this on a dyadic grid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .intervals import IntervalUnion, normalize, parse_union
from .vc import join


@dataclass(frozen=True)
class Piece:
    """One cell of the current join with the offset of its image block."""

    source: IntervalUnion
    beta: Fraction


class PiecewiseTranslation:
    """Invertible rearrangement of [0, 1) by translations of interval parts.

    ``pieces`` hold stage cells in image order; a flattened translation
    table drives point evaluation and exact images, and its inverse exact
    preimages. Instances are immutable.
    """

    __slots__ = ("pieces", "stage", "_table", "_inverse")

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
        # The image rows tile [0, 1) as well, since the map is a bijection.
        inverse = sorted((lo + s, hi + s, -s) for lo, hi, s in table)
        object.__setattr__(self, "_inverse", tuple(inverse))

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
        return _translate(self._table, u)

    def preimage(self, u: IntervalUnion) -> IntervalUnion:
        """Exact preimage of a union, by the inverse table."""
        return _translate(self._inverse, u)

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


def _translate(table, u: IntervalUnion) -> IntervalUnion:
    """Shift each part of ``u`` by the rows of ``table`` it meets.

    The rows (lo, hi, shift) tile [0, 1) in order, so each part starts at
    the row holding its left end and steps through the following rows.
    """
    pairs = []
    for part in u.parts:
        i = bisect_right(table, part.lo, key=lambda row: row[0]) - 1
        while i < len(table) and table[i][0] < part.hi:
            lo, hi, shift = table[i]
            pairs.append((max(part.lo, lo) + shift, min(part.hi, hi) + shift))
            i += 1
    return normalize(pairs)


def build_map(sets) -> PiecewiseTranslation:
    """Stage-n map of the filtration C_1..C_n given as ``sets``.

    The join cells are packed in stage order: at stage j the cell inside
    C_j precedes the one outside it, with C_1 deciding first, and each
    cell's block starts at the total measure of the cells before it.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    n = len(sets)
    cells = join(sets).cells
    pieces = []
    beta = Fraction(0)
    for mask in sorted(cells, key=lambda m: [not m >> j & 1 for j in range(n)]):
        pieces.append(Piece(cells[mask], beta))
        beta += cells[mask].measure
    return PiecewiseTranslation(pieces, n)


def image_of_union(
    phi: PiecewiseTranslation, c: IntervalUnion
) -> tuple[IntervalUnion, IntervalUnion]:
    """Image of a cell-aligned union and its straightened block form.

    ``c`` must be a union of whole stage cells. Returns (image, blocks)
    where blocks is the union of [beta, beta + lambda(A)) over the covered
    cells; for a piecewise translation these are equal as sets, which the
    caller can confirm via the symmetric difference.
    """
    block_pairs = []
    covered = IntervalUnion()
    for p in phi.pieces:
        inter = p.source.intersect(c)
        if inter.is_empty:
            continue
        if inter != p.source:
            raise ValueError("set is not aligned with the stage cells")
        block_pairs.append((p.beta, p.beta + p.source.measure))
        covered = covered.union(p.source)
    if covered != c:
        raise ValueError("set is not a union of stage cells")
    return phi.image(c), normalize(block_pairs)


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
    return IntervalUnion.from_ends(1 << (i + 1), range(1 << (i + 1)))


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
