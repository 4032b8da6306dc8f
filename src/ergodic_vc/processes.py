"""Seeded stationary processes on [0, 1) with exact dyadic sample points.

Every generator emits points as integer numerators at a fixed binary
precision P >= 64 (value n means n / 2**P), so membership tests against
rational interval endpoints and orbit atoms are exact integer comparisons.
Generation is counter based: point i is a pure function of (seed, i), which
makes paths reproducible and trivially splittable across workers.

Kinds:

* ``iid-uniform``  independent P-bit uniforms.
* ``rotation``     x_i = x_0 + i * alpha mod 1 in P-bit fixed point.
* ``doubling``     x_i reads P bits of a seeded bit stream shifted i places,
                   so x_{i+1} agrees with frac(2 x_i) to P-1 bits and the
                   leading bit of x_i is stream bit i+1.
* ``markov``       finite chain with exact rational transition rows; state s
                   emits a quantized uniform draw from cell s of a partition.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import InsufficientDataError
from .intervals import IntervalUnion, SetFamily, parse_union

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


def golden_alpha_fixed(precision: int) -> int:
    """floor(((sqrt 5 - 1) / 2) * 2**precision), the golden rotation angle."""
    return (isqrt(5 << (2 * precision)) - (1 << precision)) // 2


def _rat_to_fixed_floor(x: Fraction, precision: int) -> int:
    return (x.numerator << precision) // x.denominator


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

    def with_seed(self, seed: int) -> "ProcessSpec":
        return ProcessSpec(self.kind, self.params, seed, self.precision)

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            if isinstance(v, IntervalUnion):
                return str(v)
            if isinstance(v, int):
                return str(v)
            if isinstance(v, list):
                return [enc(x) for x in v]
            return v

        return {
            "kind": self.kind,
            "params": {k: enc(v) for k, v in self.params.items()},
            "seed": self.seed,
            "precision": self.precision,
        }

    @staticmethod
    def from_json(obj: dict) -> "ProcessSpec":
        """Rebuild a spec through its kind's validating constructor."""
        kind = obj["kind"]
        params = obj.get("params", {})
        seed = int(obj["seed"])
        precision = int(obj.get("precision", 128))
        if kind == "iid-uniform":
            return iid_spec(seed, precision)
        if kind == "rotation":
            alpha = params.get("alpha_fixed")
            return rotation_spec(
                seed,
                None if alpha is None else int(alpha),
                int(params.get("x0_fixed", 0)),
                precision,
            )
        if kind == "doubling":
            return doubling_spec(seed, precision)
        if kind == "markov":
            return markov_spec(params["matrix"], params["cells"], seed, precision)
        raise ValueError(f"unknown process kind {kind!r}")


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
    """Finite path x_1..x_M of dyadic points, plus an audit of adjustments.

    ``fixed[i-1]`` is the numerator of x_i at ``precision`` bits. ``audit``
    records boundary-avoidance replacements as (index, original numerator).
    """

    spec: ProcessSpec
    precision: int
    fixed: tuple[int, ...]
    audit: tuple[tuple[int, int], ...] = ()
    _sorted_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.fixed)

    def point(self, i: int) -> Fraction:
        """x_i as an exact rational, 1-based."""
        return Fraction(self.fixed[i - 1], 1 << self.precision)

    def points(self) -> list[Fraction]:
        scale = 1 << self.precision
        return [Fraction(n, scale) for n in self.fixed]

    def sorted_fixed(self, m: int) -> list[int]:
        """Ascending numerators of the first m points (cached per m)."""
        if m < 1 or m > self.length:
            raise InsufficientDataError(f"prefix {m} unavailable", self.length)
        if m not in self._sorted_cache:
            self._sorted_cache[m] = sorted(self.fixed[:m])
        return self._sorted_cache[m]

    @staticmethod
    def from_values(values, precision: int = 128, spec: ProcessSpec | None = None) -> "SamplePath":
        """Build a synthetic path from rationals, quantized to the precision grid."""
        spec = spec or iid_spec(0, precision)
        fixed = tuple(_rat_to_fixed_floor(Fraction(v), precision) for v in values)
        for n in fixed:
            if not 0 <= n < (1 << precision):
                raise ValueError("points must lie in [0, 1)")
        return SamplePath(spec, precision, fixed)


def _doubling_stream(seed: int, bits: int) -> tuple[int, int]:
    """The doubling bit stream cut to whole words holding at least ``bits``.

    Returns (stream, width); stream bit b_1 is bit width - 1 of the integer.
    """
    words = -(-bits // 64)
    stream = 0
    for lane in range(words):
        stream = (stream << 64) | _word(seed, DOMAIN_DOUBLING, lane, 0)
    return stream, words * 64


def _doubling_fixed(seed: int, count: int, precision: int) -> list[int]:
    stream, total = _doubling_stream(seed, count + precision)
    mask = (1 << precision) - 1
    # Bit b_1 is the most significant; x_i = 0.b_{i+1} ... b_{i+precision}.
    return [(stream >> (total - (i + precision))) & mask for i in range(1, count + 1)]


def _markov_fixed(spec: ProcessSpec, count: int) -> list[int]:
    matrix = spec.params["matrix"]
    cells = spec.params["cells"]
    precision = spec.precision
    scale = 1 << precision
    pi = stationary_distribution(matrix)

    def pick(dist, u_fixed):
        # Exact categorical draw: find least s with u < cumsum(dist)[s].
        acc = Fraction(0)
        for s, p in enumerate(dist):
            acc += p
            if u_fixed * acc.denominator < acc.numerator * scale:
                return s
        return len(dist) - 1

    def emit(state, v_fixed):
        cell = cells[state]
        pos = Fraction(v_fixed, scale) * cell.measure
        acc = Fraction(0)
        for part in cell.parts:
            if pos < acc + part.length:
                return _rat_to_fixed_floor(part.lo + (pos - acc), precision)
            acc += part.length
        last = cell.parts[-1]
        return _rat_to_fixed_floor(last.hi, precision) - 1

    out = []
    state = pick(pi, fixed_uniform(spec.seed, DOMAIN_MARKOV_STATE, 0, precision))
    for i in range(1, count + 1):
        state = pick(matrix[state], fixed_uniform(spec.seed, DOMAIN_MARKOV_STATE, i, precision))
        out.append(emit(state, fixed_uniform(spec.seed, DOMAIN_MARKOV_EMIT, i, precision)))
    return out


def generate(spec: ProcessSpec, count: int, avoid=()) -> SamplePath:
    """Generate x_1..x_count; ``avoid`` lists registered boundary points.

    A generated point exactly equal to an avoided rational is replaced by
    point + 2**-precision (mod 1), and the replacement is recorded in the
    path audit. Only rationals expressible on the precision grid can ever
    collide, so the translation is exact.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    precision = spec.precision
    scale = 1 << precision
    if spec.kind == "iid-uniform":
        fixed = [fixed_uniform(spec.seed, DOMAIN_IID, i, precision) for i in range(1, count + 1)]
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

    avoid_fixed = set()
    for r in avoid:
        r = Fraction(r)
        n = r.numerator * scale
        if n % r.denominator == 0:
            avoid_fixed.add(n // r.denominator)
    audit = []
    if avoid_fixed:
        for idx, n in enumerate(fixed):
            if n in avoid_fixed:
                original = n
                while n in avoid_fixed:
                    n = (n + 1) % scale
                fixed[idx] = n
                audit.append((idx + 1, original))
    return SamplePath(spec, precision, tuple(fixed), tuple(audit))


class AtomSet:
    """Finite set of precision-grid points, carried as a measure-zero member.

    Supports the same membership and counting interface as IntervalUnion so
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

    def atoms(self) -> tuple[Fraction, ...]:
        scale = 1 << self.precision
        return tuple(Fraction(n, scale) for n in self.fixed)

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        n = x.numerator << self.precision
        if n % x.denominator:
            return False
        n //= x.denominator
        i = bisect_left(self.fixed, n)
        return i < len(self.fixed) and self.fixed[i] == n

    def count_fixed(self, sorted_fixed, precision: int) -> int:
        if precision != self.precision:
            raise ValueError("precision mismatch between atoms and path")
        return sum(
            bisect_right(sorted_fixed, n) - bisect_left(sorted_fixed, n) for n in self.fixed
        )

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
    x0 = x0_fixed % scale

    def member(j: int) -> AtomSet:
        w = window * (j + 1)
        return AtomSet(((x0 + t * alpha) % scale for t in range(-w, w + 1)), precision)

    return SetFamily(f"trajectory(window={window})", member, None)


def doubling_stream_bits(seed: int, count: int) -> list[int]:
    """First ``count`` bits b_1.. of the doubling bit stream (for audits)."""
    stream, total = _doubling_stream(seed, count)
    return [(stream >> (total - i)) & 1 for i in range(1, count + 1)]
