"""Bounded piecewise-linear function classes and their set-class reductions.

Two exact reductions are implemented:

* Level discretization: a K-level staircase counting the levels at or above
  f squeezes each function from above within eps = 2 * bound / K, so uniform
  deviations of the class and of its staircase differ by at most 2 * eps.
* Graph lifting: after rescaling values into [0, 1], attach one auxiliary
  uniform coordinate per sample and split the deviation into an indicator
  part (gamma1) and a conditionally centered part (gamma2); the inequality
  gamma <= gamma1 + gamma2 holds exactly on every instance.

Evaluations, integrals and deviations are exact rationals throughout.
Convention for half-open pieces: where an operation creates a new breakpoint
at an exact upward level crossing, the output takes the right-interior value
at that single point. Each affected operation documents why its stated
guarantees survive the convention.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .deviation import DeviationResult
from .errors import InsufficientDataError
from .intervals import ceil_fixed
from .processes import _MASK64, DOMAIN_FN_GEN, DOMAIN_YLIFT, SamplePath, fixed_uniform, uniforms


class PiecewiseFn:
    """Piecewise-linear function on [0, 1) with rational data.

    ``breakpoints`` are 0 = b_0 < .. < b_r = 1; piece i is
    f(x) = slope_i * x + intercept_i on [b_i, b_{i+1}).
    ``bound`` caps |f| on the closure of every piece.
    """

    __slots__ = ("breakpoints", "slopes", "intercepts", "bound")

    def __init__(self, breakpoints, pieces, bound):
        breakpoints = tuple(Fraction(b) for b in breakpoints)
        if (
            len(breakpoints) < 2
            or breakpoints[0] != 0
            or breakpoints[-1] != 1
            or any(a >= b for a, b in zip(breakpoints, breakpoints[1:]))
        ):
            raise ValueError("breakpoints must satisfy 0 = b_0 < .. < b_r = 1")
        if len(pieces) != len(breakpoints) - 1:
            raise ValueError("need one (slope, intercept) pair per piece")
        slopes = tuple(Fraction(s) for s, _ in pieces)
        intercepts = tuple(Fraction(c) for _, c in pieces)
        bound = Fraction(bound)
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        for i, (s, c) in enumerate(zip(slopes, intercepts)):
            for x in (breakpoints[i], breakpoints[i + 1]):
                v = s * x + c
                if abs(v) > bound:
                    raise ValueError(
                        f"|f| reaches {v} on piece {i}, above bound {bound}"
                    )
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("PiecewiseFn is immutable")

    def __eq__(self, other):
        if not isinstance(other, PiecewiseFn):
            return NotImplemented
        return (
            self.breakpoints == other.breakpoints
            and self.slopes == other.slopes
            and self.intercepts == other.intercepts
        )

    def __hash__(self):
        return hash((self.breakpoints, self.slopes, self.intercepts))

    def __repr__(self):
        segs = ", ".join(
            f"[{self.breakpoints[i]},{self.breakpoints[i + 1]}): {s}*x+{c}"
            for i, (s, c) in enumerate(zip(self.slopes, self.intercepts))
        )
        return f"PiecewiseFn({segs}; bound={self.bound})"

    @staticmethod
    def constant(c, bound=None) -> "PiecewiseFn":
        c = Fraction(c)
        return PiecewiseFn((0, 1), ((0, c),), abs(c) if bound is None else bound)

    def piece_index(self, x: Fraction) -> int:
        if not 0 <= x < 1:
            raise ValueError(f"point {x} outside [0, 1)")
        return bisect_right(self.breakpoints, x) - 1

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        i = self.piece_index(x)
        return self.slopes[i] * x + self.intercepts[i]

    def mean(self) -> Fraction:
        """Exact integral against Lebesgue measure on [0, 1)."""
        total = Fraction(0)
        for i, (s, c) in enumerate(zip(self.slopes, self.intercepts)):
            a, b = self.breakpoints[i], self.breakpoints[i + 1]
            total += s * (b * b - a * a) / 2 + c * (b - a)
        return total

    def affine(self, scale, shift, bound=None) -> "PiecewiseFn":
        """scale * f + shift, with an explicit or worst-case derived bound."""
        scale, shift = Fraction(scale), Fraction(shift)
        if bound is None:
            bound = abs(scale) * self.bound + abs(shift)
        pieces = [
            (scale * s, scale * c + shift)
            for s, c in zip(self.slopes, self.intercepts)
        ]
        return PiecewiseFn(self.breakpoints, pieces, bound)

    def range_bounds(self) -> tuple[Fraction, Fraction]:
        """(inf, sup) of f over the closures of all pieces."""
        lo = hi = self.slopes[0] * self.breakpoints[0] + self.intercepts[0]
        for i, (s, c) in enumerate(zip(self.slopes, self.intercepts)):
            for x in (self.breakpoints[i], self.breakpoints[i + 1]):
                v = s * x + c
                lo, hi = min(lo, v), max(hi, v)
        return lo, hi

    def to_json(self) -> dict:
        def rat(v):
            return f"{v.numerator}/{v.denominator}"

        return {
            "breakpoints": [rat(b) for b in self.breakpoints],
            "pieces": [
                [rat(s), rat(c)] for s, c in zip(self.slopes, self.intercepts)
            ],
            "bound": rat(self.bound),
        }


def _merged_staircase(cuts, values, bound) -> PiecewiseFn:
    """Assemble a piecewise-constant function, merging equal neighbors."""
    breakpoints = [cuts[0]]
    pieces = []
    for t, v in zip(cuts[1:], values):
        if pieces and pieces[-1][1] == v:
            breakpoints[-1] = t
        else:
            breakpoints.append(t)
            pieces.append((Fraction(0), v))
    return PiecewiseFn(breakpoints, pieces, bound)


def discretize_major(f: PiecewiseFn, bound, levels: int) -> PiecewiseFn:
    """K-level staircase g(x) = M - (2M/K) * #{j in 1..K : f(x) <= M - 2Mj/K}.

    Returns g as a piecewise-constant function on the refinement of f's
    pieces by the exact crossings of the K thresholds. The sandwich
    g - 2M/K <= f <= g holds at every point of [0, 1): on open segments g
    equals the formula, and at an upward crossing x* (where f(x*) equals a
    threshold exactly) the right-interior convention gives
    g(x*) = f(x*) + 2M/K, so the lower edge holds with equality there.
    """
    bound = Fraction(bound)
    levels = int(levels)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    lo, hi = f.range_bounds()
    if bound < max(abs(lo), abs(hi)):
        raise ValueError(
            f"bound {bound} is below the function's envelope {max(abs(lo), abs(hi))}"
        )
    eps = 2 * bound / levels
    thresholds = [bound - eps * j for j in range(1, levels + 1)]

    cuts = []
    values = []
    for i, (s, c) in enumerate(zip(f.slopes, f.intercepts)):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        inner = set()
        if s != 0:
            for alpha in thresholds:
                x = (alpha - c) / s
                if a < x < b:
                    inner.add(x)
        grid = [a] + sorted(inner) + [b]
        for lo_t, hi_t in zip(grid, grid[1:]):
            mid = (lo_t + hi_t) / 2
            fm = s * mid + c
            n = sum(1 for alpha in thresholds if fm <= alpha)
            cuts.append(lo_t)
            values.append(bound - eps * n)
    cuts.append(Fraction(1))
    return _merged_staircase(cuts, values, bound)


@dataclass(frozen=True)
class Truncation:
    """Envelope truncation f * I(F <= M) with its exact tail integral."""

    fn: PiecewiseFn
    tail: Fraction


def _common_refinement(f: PiecewiseFn, g: PiecewiseFn) -> list[Fraction]:
    return sorted(set(f.breakpoints) | set(g.breakpoints))


def _check_envelope(f: PiecewiseFn, envelope: PiecewiseFn, cuts) -> None:
    for a, b in zip(cuts, cuts[1:]):
        i, j = f.piece_index(a), envelope.piece_index(a)
        for x in (a, b):
            fv = f.slopes[i] * x + f.intercepts[i]
            ev = envelope.slopes[j] * x + envelope.intercepts[j]
            if ev < abs(fv):
                raise ValueError(
                    f"envelope {ev} < |f| = {abs(fv)} near x = {x}"
                )


def truncate_envelope(f: PiecewiseFn, envelope: PiecewiseFn, cap) -> Truncation:
    """Zero out f where its envelope exceeds cap; report the tail integral.

    The result keeps f on pieces where envelope <= cap and is 0 elsewhere;
    tail = 2 * integral of envelope over {envelope > cap}. New breakpoints
    fall at exact crossings of the envelope with cap; at an upward crossing
    the right-interior convention zeroes that single boundary point even
    though the closed inequality would keep it. The discrepancy is confined
    to the finite crossing set and does not move the tail integral.
    """
    cap = Fraction(cap)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    cuts = _common_refinement(f, envelope)
    _check_envelope(f, envelope, cuts)

    refined = set(cuts)
    for j, (s, c) in enumerate(zip(envelope.slopes, envelope.intercepts)):
        a, b = envelope.breakpoints[j], envelope.breakpoints[j + 1]
        if s != 0:
            x = (cap - c) / s
            if a < x < b:
                refined.add(x)
    grid = sorted(refined)

    breakpoints = [Fraction(0)]
    pieces = []
    tail = Fraction(0)
    for a, b in zip(grid, grid[1:]):
        mid = (a + b) / 2
        j = envelope.piece_index(mid)
        es, ec = envelope.slopes[j], envelope.intercepts[j]
        if es * mid + ec > cap:
            piece = (Fraction(0), Fraction(0))
            tail += 2 * (es * (b * b - a * a) / 2 + ec * (b - a))
        else:
            i = f.piece_index(mid)
            piece = (f.slopes[i], f.intercepts[i])
        if pieces and pieces[-1] == piece:
            breakpoints[-1] = b
        else:
            breakpoints.append(b)
            pieces.append(piece)
    return Truncation(PiecewiseFn(breakpoints, pieces, min(f.bound, cap)), tail)


def _eval_plan(f: PiecewiseFn, precision: int):
    """Per-piece integer evaluation data at a fixed-point precision.

    Returns (bounds, rows) with bounds[i] the least fixed numerator inside
    piece i and rows[i] = (A, B, D) such that f(n / 2^P) = (A*n + B) / (D * 2^P)
    exactly. Lets hot loops run on plain integers instead of Fractions.
    """
    scale = 1 << precision
    bounds = []
    rows = []
    for i, (s, c) in enumerate(zip(f.slopes, f.intercepts)):
        bounds.append(ceil_fixed(f.breakpoints[i], precision))
        sd, cd = s.denominator, c.denominator
        rows.append((s.numerator * cd, c.numerator * sd * scale, sd * cd))
    return bounds, rows


def _plan_sums(f: PiecewiseFn, precision: int, xs, ys=None) -> tuple[Fraction, int]:
    """Exact sum of f over ascending fixed points xs, plus closed-indicator hits.

    Piece i holds the slice of xs between the ranks (``bisect_left``) of
    its bound and the next one, ``bounds[1:] + [2**P]``, so its x total is
    one ``sum`` and the sum of f costs one Fraction per piece. When ys is
    given, paired with xs index by index, hits counts pairs with y <= f(x);
    on a constant piece (A = 0) that is y <= B // D, as D > 0 and y is an
    integer.
    """
    bounds, rows = _eval_plan(f, precision)
    scale = 1 << precision
    total, hits, lo = Fraction(0), 0, 0
    for (a, b, d), t in zip(rows, bounds[1:] + [scale]):
        hi = bisect_left(xs, t, lo)
        if hi > lo:
            total += Fraction(a * sum(xs[lo:hi]) + b * (hi - lo), d * scale)
            if ys is not None and a:
                hits += sum(y * d <= a * x + b for x, y in zip(xs[lo:hi], ys[lo:hi]))
            elif ys is not None:
                top = b // d
                hits += len([y for y in ys[lo:hi] if y <= top])
            lo = hi
    return total, hits


def gamma_fn(fns, path: SamplePath, m: int) -> DeviationResult:
    """sup over the family of |sample mean of f - exact mean of f|."""
    fns = list(fns)
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > len(path.fixed):
        raise InsufficientDataError(
            f"path holds {len(path.fixed)} samples, need {m}",
            available=len(path.fixed),
        )
    best = Fraction(0)
    arg = None
    for i, f in enumerate(fns):
        total, _ = _plan_sums(f, path.precision, path.sorted_fixed(m))
        dev = abs(total / m - f.mean())
        if arg is None or dev > best:
            best, arg = dev, i
    if arg is None:
        return DeviationResult(Fraction(0), None, 0)
    return DeviationResult(best, arg, len(fns))


@dataclass(frozen=True)
class GraphSample:
    """Sample pairs (x_i, y_i): path points joined with auxiliary uniforms.

    The y stream comes from its own counter domain, so it never collides
    with the stream that produced the path, whatever the two seeds are.
    """

    path: SamplePath
    yseed: int
    yfixed: tuple

    @property
    def precision(self) -> int:
        return self.path.precision

    def __len__(self) -> int:
        return len(self.yfixed)

    def _require(self, m: int) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > len(self.yfixed):
            raise InsufficientDataError(
                f"graph sample holds {len(self.yfixed)} pairs, need {m}",
                available=len(self.yfixed),
            )

    def _sorted_pairs(self, m: int) -> tuple[tuple, tuple]:
        """(xs, ys) of the first m pairs, sorted by x, as ``_plan_sums`` takes them."""
        self._require(m)
        return tuple(zip(*sorted(zip(self.path.fixed[:m], self.yfixed[:m]))))

    def indicator_mean(self, f: PiecewiseFn, m: int) -> Fraction:
        """Empirical frequency of y <= f(x) over the first m pairs."""
        _, hits = _plan_sums(f, self.precision, *self._sorted_pairs(m))
        return Fraction(hits, m)


def graph_lift(path: SamplePath, yseed: int) -> GraphSample:
    """Attach one auxiliary uniform y_i in [0, 1) per path sample.

    ``yseed`` must lie in [0, 2**64), as larger seeds would repeat smaller ones.
    """
    if not 0 <= yseed <= _MASK64:
        raise ValueError(f"yseed {yseed} outside [0, 2**64)")
    yfixed = tuple(uniforms(yseed, DOMAIN_YLIFT, 1, len(path.fixed), path.precision))
    return GraphSample(path, yseed, yfixed)


@dataclass(frozen=True)
class GammaSplit:
    """Deviation split for a [0, 1]-valued family on a graph sample.

    gamma  = sup |mean f(x_i)            - E f|
    gamma1 = sup |freq(y_i <= f(x_i))    - E f|
    gamma2 = sup |freq(y_i <= f(x_i))    - mean f(x_i)|
    all on the evaluated [0, 1] scale; ``scale`` is 1 when the family was
    already [0, 1]-valued, else 2M for the applied map (f + M) / 2M.
    Multiply gamma by ``scale`` to recover the original family's deviation.
    """

    gamma: Fraction
    gamma1: Fraction
    gamma2: Fraction
    bound_ok: bool
    scale: Fraction
    gamma_argmax: int | None
    gamma1_argmax: int | None
    gamma2_argmax: int | None


def gamma_split(fns, gs: GraphSample, m: int) -> GammaSplit:
    """Split the family deviation via the auxiliary uniform coordinates.

    Families whose values already sit inside [0, 1] are evaluated as given;
    otherwise every member is rescaled by (f + M) / 2M with M the largest
    member bound, which lands all values in [0, 1]. The exact pointwise
    identity I(y <= f(x)) decomposes each member's deviation so that
    gamma <= gamma1 + gamma2 on every instance (triangle inequality through
    the indicator frequency), and the comparison is scale-invariant.
    """
    fns = list(fns)
    gs._require(m)
    if not fns:
        return GammaSplit(
            Fraction(0), Fraction(0), Fraction(0), True, Fraction(1),
            None, None, None,
        )
    in_unit = all(
        lo >= 0 and hi <= 1 for lo, hi in (f.range_bounds() for f in fns)
    )
    if in_unit:
        scale = Fraction(1)
        evaluated = fns
    else:
        env = max(f.bound for f in fns)
        if env == 0:
            evaluated = [PiecewiseFn.constant(Fraction(1, 2), bound=1) for _ in fns]
            scale = Fraction(0)
        else:
            evaluated = [
                f.affine(Fraction(1, 2 * env), Fraction(1, 2), bound=1) for f in fns
            ]
            scale = 2 * env

    xs, ys = gs._sorted_pairs(m)
    gamma = gamma1 = gamma2 = Fraction(-1)
    a0 = a1 = a2 = None
    for i, g in enumerate(evaluated):
        mean_exact = g.mean()
        total, hits = _plan_sums(g, gs.precision, xs, ys)
        sample_mean = total / m
        freq = Fraction(hits, m)
        d0 = abs(sample_mean - mean_exact)
        d1 = abs(freq - mean_exact)
        d2 = abs(freq - sample_mean)
        if d0 > gamma:
            gamma, a0 = d0, i
        if d1 > gamma1:
            gamma1, a1 = d1, i
        if d2 > gamma2:
            gamma2, a2 = d2, i
    return GammaSplit(
        gamma, gamma1, gamma2, gamma <= gamma1 + gamma2, scale, a0, a1, a2
    )


def lm_bound(m: int, v: int) -> float:
    """Rate bound 2 * sqrt(ln(2 * (m+1)^v) / m) for a [0, 1]-valued family.

    (m+1)^v bounds the shatter coefficient of a dimension-v graph class, so
    the bound decays like sqrt(v * ln m / m).
    """
    if m < 1 or v < 0:
        raise ValueError("need m >= 1 and v >= 0")
    return 2 * math.sqrt((math.log(2) + v * math.log(m + 1)) / m)


def ramp_family(count: int = 10, slope=2) -> list[PiecewiseFn]:
    """count ramps f_j(x) = clip(slope * (x - j/count), 0, 1), j = 0..count-1."""
    slope = Fraction(slope)
    if count < 1 or slope <= 0:
        raise ValueError("need count >= 1 and slope > 0")
    fns = []
    for j in range(count):
        start = Fraction(j, count)
        top = start + 1 / slope
        breakpoints = [Fraction(0)]
        pieces = []
        if start > 0:
            breakpoints.append(start)
            pieces.append((Fraction(0), Fraction(0)))
        if top < 1:
            breakpoints.extend([top, Fraction(1)])
            pieces.extend([(slope, -slope * start), (Fraction(0), Fraction(1))])
        else:
            breakpoints.append(Fraction(1))
            pieces.append((slope, -slope * start))
        fns.append(PiecewiseFn(breakpoints, pieces, 1))
    return fns


def random_piecewise_fn(
    seed: int, bound=1, max_pieces: int = 5, grid: int = 1 << 10
) -> PiecewiseFn:
    """Deterministic pseudo-random piecewise-linear function, |f| <= bound.

    Breakpoints and endpoint values are drawn on a rational grid from the
    function-generation counter domain; each piece interpolates its endpoint
    values, so the bound holds on every closure by construction.
    """
    bound = Fraction(bound)
    if bound <= 0 or max_pieces < 1 or grid < 2:
        raise ValueError("need bound > 0, max_pieces >= 1, grid >= 2")

    def draw(index: int, span: int) -> int:
        return fixed_uniform(seed, DOMAIN_FN_GEN, index, 64) * span >> 64

    r = 1 + draw(1, max_pieces)
    inner = sorted({Fraction(1 + draw(10 + t, grid - 1), grid) for t in range(r - 1)})
    breakpoints = [Fraction(0)] + inner + [Fraction(1)]
    values = [
        bound * Fraction(draw(100 + t, 2 * grid + 1) - grid, grid)
        for t in range(len(breakpoints))
    ]
    pieces = []
    for i in range(len(breakpoints) - 1):
        a, b = breakpoints[i], breakpoints[i + 1]
        va, vb = values[i], values[i + 1]
        s = (vb - va) / (b - a)
        pieces.append((s, va - s * a))
    return PiecewiseFn(breakpoints, pieces, bound)
