"""Seeded stationary processes on [0, 1) with exact dyadic sample points.

Every generator emits points as integer numerators at a fixed binary
precision P >= 64 (value n means n / 2**P), so membership tests against
rational interval endpoints and orbit atoms are exact integer comparisons.
Generation is counter based: point i is a pure function of (seed, i), which
makes paths reproducible and trivially splittable across workers. Paths are
drawn by ``uniforms`` in packed lanes (SIMD within a register on Python's
bignums); ``fixed_uniform`` is the per-point reference it matches bit for bit.

Kinds:

* ``iid-uniform``  independent P-bit uniforms.
* ``rotation``     x_i = x_0 + i * alpha mod 1 in P-bit fixed point.
* ``doubling``     x_i reads P bits of a seeded bit stream shifted i places,
                   so x_{i+1} agrees with frac(2 x_i) to P-1 bits and the
                   leading bit of x_i is stream bit i+1. Each block of 64
                   points reads one window of consecutive stream words.
* ``markov``       finite chain with exact rational transition rows; state s
                   emits a quantized uniform draw from cell s of a partition.
                   Both draws are integer: a bisect into ``ceil_fixed``
                   thresholds picks the state, and one floor division over
                   the cell's denominator places the point.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import isqrt

from .errors import InsufficientDataError
from .intervals import IntervalUnion, SetFamily, ceil_fixed, parse_union, rescaled

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15

# Counter domains keep the streams of one seed independent.
DOMAIN_IID = 1
DOMAIN_DOUBLING = 2
DOMAIN_MARKOV_STATE = 3
DOMAIN_MARKOV_EMIT = 4
DOMAIN_YLIFT = 5
DOMAIN_FN_GEN = 6


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _word(seed: int, domain: int, index: int, lane: int) -> int:
    base = _mix64((seed & _MASK64) ^ ((domain * 0xD6E8FEB86659FD93) & _MASK64))
    return _mix64(base + index * _GOLDEN64 + lane * 0xC2B2AE3D27D4EB4F)


def fixed_uniform(seed: int, domain: int, index: int, precision: int) -> int:
    """Deterministic P-bit uniform numerator for counter ``index``."""
    words = -(-precision // 64)
    n = 0
    for lane in range(words):
        n = (n << 64) | _word(seed, domain, index, lane)
    return n >> (words * 64 - precision)


@lru_cache(maxsize=8)
def _slots(width: int) -> tuple:
    """Chunk size c (4,096 up to 128-bit slots, so a chunk stays near 64 KiB),
    sum 2**(width j), golden * sum j 2**(width j) and (2**64 - 1) sum 2**(width j)
    over j < c built by doubling, and an unpacker of c big-endian slots."""
    c = 1 << max(0, 20 - width.bit_length())
    r, s, n = 1, 0, 1
    while n < c:
        s |= (s + n * r) << (width * n)
        r |= r << (width * n)
        n *= 2
    return c, r, _GOLDEN64 * s, _MASK64 * r, struct.Struct(f"{width // 8}s" * c).unpack


def uniforms(seed: int, domain: int, start: int, count: int, precision: int) -> list[int]:
    """``fixed_uniform`` at counters start .. start + count - 1, in packed lanes.

    Each 64-bit lane of a chunk of counters is one int with one slot per
    counter. A slot's spare top bits take each 64-bit product, so a splitmix
    step is one xor-shift, mask and multiply over the chunk. A shorter last
    chunk takes the low bits of the chunk constants.
    """
    words = -(-precision // 64)
    width = 64 * max(words, 2)
    drop = 64 * words - precision
    base = _mix64((seed & _MASK64) ^ ((domain * 0xD6E8FEB86659FD93) & _MASK64))
    chunk, R, G, M, unpack = _slots(width)
    out = []
    for s in range(start, start + count, chunk):
        n = min(chunk, start + count - s)
        if n < chunk:
            low = (1 << width * n) - 1
            R, G, M = R & low, G & low, M & low
            unpack = struct.Struct(f"{width // 8}s" * n).unpack
        v, c = 0, base + s * _GOLDEN64
        for _ in range(words):
            z = ((c & _MASK64) * R + G) & M
            z = ((z ^ (z >> 30)) & M) * 0xBF58476D1CE4E5B9 & M
            z = ((z ^ (z >> 27)) & M) * 0x94D049BB133111EB & M
            v = (v << 64) | ((z ^ (z >> 31)) & M)
            c += 0xC2B2AE3D27D4EB4F
        if drop:
            v = (v >> drop) & ((R << precision) - R)
        out += reversed(list(map(int.from_bytes, unpack(v.to_bytes(width // 8 * n, "big")), repeat("big"))))
    return out


def golden_alpha_fixed(precision: int) -> int:
    """floor(((sqrt 5 - 1) / 2) * 2**precision), the golden rotation angle."""
    return (isqrt(5 << (2 * precision)) - (1 << precision)) // 2


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a process: kind, parameters, seed, precision."""

    kind: str
    params: dict
    seed: int
    precision: int = 128

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError(f"precision {self.precision} below minimum 64")
        if self.kind not in ("iid-uniform", "rotation", "doubling", "markov"):
            raise ValueError(f"unknown process kind {self.kind!r}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        if self.kind == "rotation":
            alpha, x0 = self.params["alpha_fixed"], self.params["x0_fixed"]
            if type(alpha) is not int or type(x0) is not int:  # a bool or a float is no numerator
                raise TypeError(f"rotation numerators must be ints, got alpha_fixed {alpha!r}, x0_fixed {x0!r}")
            if alpha % (1 << self.precision) == 0:
                # A whole turn leaves every point at x0: a constant path, not a rotation.
                raise ValueError(f"rotation alpha_fixed {alpha} is 0 mod 2**{self.precision}")

    def with_seed(self, seed: int) -> "ProcessSpec":
        return ProcessSpec(self.kind, self.params, seed, self.precision)


def iid_spec(seed: int, precision: int = 128) -> ProcessSpec:
    return ProcessSpec("iid-uniform", {}, seed, precision)


def rotation_spec(
    seed: int = 0,
    alpha_fixed: int | None = None,
    x0_fixed: int = 0,
    precision: int = 128,
) -> ProcessSpec:
    """Rotation by alpha; defaults to the golden angle at this precision."""
    if alpha_fixed is None:
        alpha_fixed = golden_alpha_fixed(precision)
    return ProcessSpec(
        "rotation", {"alpha_fixed": alpha_fixed, "x0_fixed": x0_fixed}, seed, precision
    )


def doubling_spec(seed: int, precision: int = 128) -> ProcessSpec:
    return ProcessSpec("doubling", {}, seed, precision)


def markov_spec(matrix, cells, seed: int, precision: int = 128) -> ProcessSpec:
    """Finite chain over a cell partition of [0, 1).

    Rows must be rational and sum to one exactly; cells must be disjoint
    with positive measure and cover [0, 1). The chain starts from its exact
    stationary distribution; the sampled marginal is Lebesgue iff the
    stationary probabilities equal the cell measures (true for doubly
    stochastic matrices on an equal-measure partition).
    """
    matrix = [[Fraction(x) for x in row] for row in matrix]
    cells = [c if isinstance(c, IntervalUnion) else parse_union(c) for c in cells]
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    if len(cells) != n:
        raise ValueError("need one cell per state")
    for row in matrix:
        if sum(row) != 1 or any(p < 0 for p in row):
            raise ValueError("rows must be nonnegative and sum to 1 exactly")
    total = IntervalUnion()
    for c in cells:
        if c.measure == 0:
            raise ValueError("cells must have positive measure")
        if not total.intersect(c).is_empty:
            raise ValueError("cells must be disjoint")
        total = total.union(c)
    if total.measure != 1:
        raise ValueError("cells must cover [0, 1)")
    return ProcessSpec("markov", {"matrix": matrix, "cells": cells}, seed, precision)


def stationary_distribution(matrix) -> list[Fraction]:
    """Exact stationary row vector of a rational stochastic matrix.

    Solves pi (P - I) = 0 with sum(pi) = 1 by Gaussian elimination over the
    rationals. Requires a unique solution (irreducible chain).
    """
    n = len(matrix)
    # Unknowns pi_0..pi_{n-1}; equations: columns of P - I (drop one), plus sum = 1.
    rows = []
    for j in range(n - 1):
        rows.append([matrix[i][j] - (1 if i == j else 0) for i in range(n)] + [Fraction(0)])
    rows.append([Fraction(1)] * n + [Fraction(1)])
    # Gaussian elimination.
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("chain is reducible; stationary distribution not unique")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    pi = [rows[i][n] for i in range(n)]
    if any(p < 0 for p in pi):
        raise ValueError("negative stationary mass; matrix is not stochastic")
    return pi


@dataclass(frozen=True)
class SamplePath:
    """Finite path x_1..x_M of dyadic points.

    ``fixed[i-1]`` is the numerator of x_i at ``precision`` bits.
    """

    spec: ProcessSpec
    precision: int
    fixed: tuple[int, ...]
    _latest: list = field(default_factory=lambda: [0, []], compare=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.fixed)

    def points(self) -> list[Fraction]:
        scale = 1 << self.precision
        return [Fraction(n, scale) for n in self.fixed]

    def sorted_fixed(self, m: int) -> list[int]:
        """Ascending numerators of the first m points.

        Only the latest prefix is kept. A longer one is a new list sorted
        from the kept one plus the next points, which timsort merges as one
        sorted run; a shorter one is sorted afresh. A list once returned is
        never changed.
        """
        if m < 1 or m > self.length:
            raise InsufficientDataError(f"prefix {m} unavailable", self.length)
        prev_m, prev = self._latest
        if m != prev_m:
            if m > prev_m:
                prev = [*prev, *self.fixed[prev_m:m]]
                prev.sort()
            else:
                prev = sorted(self.fixed[:m])
            self._latest[:] = (m, prev)
        return prev

    @staticmethod
    def from_values(values, precision: int = 128, spec: ProcessSpec | None = None) -> "SamplePath":
        """Build a synthetic path from rationals, quantized to the precision grid."""
        spec = spec or iid_spec(0, precision)
        fixed = tuple((v.numerator << precision) // v.denominator for v in map(Fraction, values))
        for n in fixed:
            if not 0 <= n < (1 << precision):
                raise ValueError("points must lie in [0, 1)")
        return SamplePath(spec, precision, fixed)


def _doubling_fixed(seed: int, count: int, precision: int) -> list[int]:
    # Stream bit b_1 is the top bit of word 0 and x_i = 0.b_{i+1} ... b_{i+P}
    # reads P bits from offset i. Offsets 64q .. 64q + 63 all fall in the
    # window of ``span`` words from word q, so each block of 64 points reads
    # one window instead of shifting the whole stream.
    span = -(-precision // 64) + 1
    words = uniforms(seed, DOMAIN_DOUBLING, 0, count // 64 + span, 64)
    mask, top = (1 << precision) - 1, 64 * span - precision
    out = []
    for q in range(count // 64 + 1):
        window = 0
        for w in words[q : q + span]:
            window = (window << 64) | w
        out += [(window >> (top - r)) & mask for r in range(64)]
    return out[1 : count + 1]


def _markov_fixed(spec: ProcessSpec, count: int) -> list[int]:
    matrix = spec.params["matrix"]
    precision, seed = spec.precision, spec.seed
    # limits[0] is the stationary law and limits[s + 1] the row of state s,
    # as thresholds ceil_fixed(p_0 + ... + p_t); a uniform u draws the least
    # t with u < p_0 + ... + p_t, that is bisect_right(limits[...], u).
    limits = [
        [ceil_fixed(acc, precision) for acc in accumulate(row)]
        for row in [stationary_distribution(matrix), *matrix]
    ]
    # Cell s, with parts [lo_j, hi_j) over its own den, total length
    # ``total`` and lengths acc_j before part j, maps v to the point
    # pos = v * total / 2**P along its parts. With w = v * total, pos falls
    # in part j = bisect_right(lims, w) for lims the running lengths << P,
    # and floor((lo_j - acc_j + pos) / den * 2**P) = (offs[j] + w) // den
    # for offs[j] = (lo_j - acc_j) << P.
    cells = []
    for cell in spec.params["cells"]:
        den, (ends,) = rescaled([cell])
        lims, offs, acc = [], [], 0
        for lo, hi in zip(ends[::2], ends[1::2]):
            offs.append((lo - acc) << precision)
            acc += hi - lo
            lims.append(acc << precision)
        cells.append((den, acc, lims, offs))
    picks = uniforms(seed, DOMAIN_MARKOV_STATE, 0, count + 1, precision)
    out = []
    state = bisect_right(limits[0], picks[0])
    for u, v in zip(picks[1:], uniforms(seed, DOMAIN_MARKOV_EMIT, 1, count, precision)):
        state = bisect_right(limits[state + 1], u)
        den, total, lims, offs = cells[state]
        w = v * total
        out.append((offs[bisect_right(lims, w)] + w) // den)
    return out


def generate(spec: ProcessSpec, count: int) -> SamplePath:
    """Generate x_1..x_count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    precision = spec.precision
    scale = 1 << precision
    if spec.kind == "iid-uniform":
        fixed = uniforms(spec.seed, DOMAIN_IID, 1, count, precision)
    elif spec.kind == "rotation":
        alpha = spec.params["alpha_fixed"] % scale
        x0 = spec.params["x0_fixed"] % scale
        fixed = [(x0 + i * alpha) % scale for i in range(1, count + 1)]
    elif spec.kind == "doubling":
        fixed = _doubling_fixed(spec.seed, count, precision)
    elif spec.kind == "markov":
        fixed = _markov_fixed(spec, count)
    else:  # pragma: no cover - spec validation rejects other kinds
        raise ValueError(spec.kind)
    return SamplePath(spec, precision, tuple(fixed))


class AtomSet:
    """Finite set of precision-grid points, carried as a measure-zero member.

    Offers the same membership test and ``thresholds`` as IntervalUnion, so
    set families can mix both. Membership of a rational is exact: it holds
    only when the rational equals an atom on the grid.
    """

    __slots__ = ("fixed", "precision")

    def __init__(self, fixed, precision: int):
        self.fixed = tuple(sorted(set(fixed)))
        self.precision = precision
        scale = 1 << precision
        if self.fixed and not (0 <= self.fixed[0] and self.fixed[-1] < scale):
            raise ValueError("atoms must lie in [0, 1)")

    @property
    def measure(self) -> Fraction:
        return Fraction(0)

    @property
    def is_empty(self) -> bool:
        return not self.fixed

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        n = x.numerator << self.precision
        if n % x.denominator:
            return False
        n //= x.denominator
        i = bisect_left(self.fixed, n)
        return i < len(self.fixed) and self.fixed[i] == n

    def thresholds(self, precision: int) -> list[int]:
        """``[n, n + 1]`` per atom n. As with a union's thresholds, a point p
        counts when an odd number of them are <= p: here, when p is an atom."""
        if precision != self.precision:
            raise ValueError("precision mismatch between atoms and path")
        return [t for n in self.fixed for t in (n, n + 1)]

    def __len__(self) -> int:
        return len(self.fixed)

    def __repr__(self) -> str:
        return f"AtomSet({len(self.fixed)} atoms, precision={self.precision})"


def trajectory_family(
    alpha_fixed: int,
    x0_fixed: int,
    precision: int = 128,
    window: int = 1,
) -> SetFamily:
    """Nested orbit windows of the rotation by alpha around x0.

    Member j is the measure-zero atom set {x0 + t * alpha mod 1 : |t| <=
    window * (j + 1)}, so the members exhaust the full (countable) orbit as
    the budget grows. Windows from the same orbit are nested; windows from
    two rationally independent starting points are disjoint.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    scale = 1 << precision
    alpha = alpha_fixed % scale
    if alpha == 0:  # every member would be the one atom {x0}
        raise ValueError(f"trajectory alpha_fixed {alpha_fixed} is 0 mod 2**{precision}")
    x0 = x0_fixed % scale

    def member(j: int) -> AtomSet:
        w = window * (j + 1)
        return AtomSet(((x0 + t * alpha) % scale for t in range(-w, w + 1)), precision)

    return SetFamily(f"trajectory(window={window})", member, None)
