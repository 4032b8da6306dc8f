"""Exact empirical deviations of a sample path from Lebesgue measure.

Given a path prefix x_1..x_m of dyadic points, this module evaluates

* the deviation of a single set: |#{i <= m : x_i in A}/m - lambda(A)|,
* the uniform deviation over a budgeted family (with argmax),
* the classical one-sample KS statistic over prefixes [0, t),
* the exact supremum over unions of at most k intervals, and
* the cells of a join where a fixed set overshoots an eta fraction.

All values are rationals; sums are carried as integers over the common
denominator m * 2**precision, so results are independent of evaluation
order and reproduce byte-for-byte across worker counts.

Both suprema run on integers and build one ``Fraction`` per result. A
family is scored from compiled rows (thresholds, measure numerator, measure
denominator), cached on the ``SetFamily``: per prefix each distinct
threshold is bisected once, a member's count is the alternating sum of its
thresholds' ranks, and members are compared by cross-multiplication. The
k-interval DP keeps two integer lists of "at most r runs" totals and
updates them in place, one pass per weight list. A seeded trace compiles
its family's rows once, in the parent, and every seed's job scores them.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from statistics import median

from .errors import ResourceLimitError
from .intervals import IntervalUnion, SetFamily
from .processes import ProcessSpec, SamplePath, generate
from .vc import JoinPartition


@dataclass(frozen=True)
class DeviationResult:
    """Supremum over the first ``budget`` members, with the first argmax."""

    value: Fraction
    argmax: int | None
    budget: int


def discrepancy(member, path: SamplePath, m: int) -> Fraction:
    """|empirical frequency - measure| of one set on the m-prefix."""
    hits = member.count_fixed(path.sorted_fixed(m), path.precision)
    return abs(Fraction(hits, m) - member.measure)


def _sup_deviation(rows, sorted_fixed) -> tuple[Fraction, int | None]:
    """Largest |frequency - num/den| over rows (thresholds, num, den), first argmax.

    A row's count over the ascending prefix ``sorted_fixed`` is the
    alternating sum -r_0 + r_1 - r_2 + ... of its thresholds' ranks
    (``bisect_left``), each distinct threshold bisected once. With m points
    the value is |count * den - num * m| / (m * den), compared across rows
    by cross-multiplication. Ties keep the lowest index; no rows give
    (0, None).
    """
    m = len(sorted_fixed)
    ranks: dict[int, int] = {}
    get = ranks.get
    best, best_den, argmax = 0, 1, None
    for i, (thresholds, num, den) in enumerate(rows):
        hits, odd = 0, False
        for t in thresholds:
            r = get(t)
            if r is None:
                r = ranks[t] = bisect_left(sorted_fixed, t)
            if odd:
                hits += r
            else:
                hits -= r
            odd = not odd
        gap = abs(hits * den - num * m)
        if gap * best_den > best * den or argmax is None:
            best, best_den, argmax = gap, den, i
    return Fraction(best, m * best_den), argmax


def uniform_deviation(fam: SetFamily, upto: int, path: SamplePath, m: int) -> DeviationResult:
    """Largest member deviation within the budget (first index on ties)."""
    rows = fam.rows(upto, path.precision)
    best, argmax = _sup_deviation(islice(rows, upto), path.sorted_fixed(m))
    return DeviationResult(best, argmax, upto)


def ks_statistic(path: SamplePath, m: int) -> Fraction:
    """Exact sup_t |#{x_i < t}/m - t| from the order statistics.

    Equals max_i max(i/m - x_(i), x_(i) - (i-1)/m); computed on integer
    numerators at scale m * 2**precision.
    """
    sorted_fixed = path.sorted_fixed(m)
    scale = 1 << path.precision
    best = 0
    for i, n in enumerate(sorted_fixed, start=1):
        up = i * scale - n * m
        down = n * m - (i - 1) * scale
        if up > best:
            best = up
        if down > best:
            best = down
    return Fraction(best, m * scale)


# -- exact supremum over unions of at most k intervals -------------------------


@dataclass(frozen=True)
class KIntervalDeviation:
    """Supremum value; ``attained`` reports whether some union achieves it.

    When ``attained`` is False the supremum is only a limit of achievable
    values (a half-open union cannot close on a rightmost sample point
    without picking up extra measure); ``attained_value`` is the best value
    an actual union of at most k intervals achieves.
    """

    value: Fraction
    k: int
    attained: bool
    attained_value: Fraction


def _max_k_segments(weights, k: int) -> int:
    """Max total of at most k disjoint nonempty runs (empty choice = 0).

    out[r] is the best total of at most r runs so far, and inn[r] the best
    with at most r runs, the last ending at the current weight. Looping r
    downward reads out[r - 1] from before this weight, so a new run starts
    strictly after the runs it follows.
    """
    out = [0] * (k + 1)
    inn = [0] * (k + 1)
    down = range(k, 0, -1)
    for w in weights:
        for r in down:
            a, b = inn[r], out[r - 1]
            a = (a if a > b else b) + w
            inn[r] = a
            if a > out[r]:
                out[r] = a
    return out[k]


def max_deviation_k_intervals(
    path: SamplePath, m: int, k: int, cost_cap: int = 50_000_000
) -> KIntervalDeviation:
    """Exact sup over unions of <= k half-open intervals of |frequency - measure|.

    Split into a positive excess (frequency above measure) and a negative
    excess; each is a best-choice of at most k disjoint runs over the
    alternating gap / sample-point sequence, solved by dynamic programming
    on integer weights at scale m * 2**precision. Runs never benefit from
    partially covered gaps, so the element-level optimum is the true
    supremum. Attainability is decided by re-running the selection over the
    m+1 half-open blocks [e_t, e_{t+1}) with endpoints drawn from the
    samples and 0, 1: exactly the unions realizable without limits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * m > cost_cap:
        raise ResourceLimitError(f"k*m = {k * m} exceeds cost cap {cost_cap}")
    scale = 1 << path.precision
    # weights = [gap_0, atom_1, gap_1, .., atom_r, gap_r] over the distinct
    # points v_1 < .. < v_r: atom_t = count * scale, gap_t = -m * (v_{t+1} -
    # v_t) with v_0 = 0 and v_{r+1} = 1. The positive excess picks runs of
    # these, the negative excess runs of their negatives; the boundary gaps
    # are <= 0, so they never help the positive side.
    weights: list[int] = []
    prev = 0
    for n in path.sorted_fixed(m):
        if weights and n == prev:
            weights[-1] += scale
        else:
            weights += (m * (prev - n), scale)
            prev = n
    weights.append(m * (prev - scale))
    sup_best = max(_max_k_segments(weights, k), _max_k_segments([-w for w in weights], k))

    # Attainable optimum: runs of half-open blocks [e_t, e_{t+1}) over the
    # endpoint grid e = (0, v_1, .., v_r, 1); block t >= 1 holds atom_t and
    # the gap after it, block 0 the first gap alone.
    attain = [weights[0]] + [a + g for a, g in zip(weights[1::2], weights[2::2])]
    attained_best = max(
        _max_k_segments(attain, k), _max_k_segments([-w for w in attain], k)
    )
    denom = m * scale
    return KIntervalDeviation(
        Fraction(sup_best, denom),
        k,
        attained_best == sup_best,
        Fraction(attained_best, denom),
    )


# -- join-cell overshoot --------------------------------------------------------


@dataclass(frozen=True)
class CellOvershoot:
    """Cells whose local deviation for C exceeds (eta/2) * lambda(cell)."""

    flagged: tuple[tuple[int, IntervalUnion], ...]
    union: IntervalUnion
    measure: Fraction


def high_discrepancy_cells(
    jp: JoinPartition, c: IntervalUnion, path: SamplePath, m: int, eta: Fraction
) -> CellOvershoot:
    """Flag join cells A with deviation of C n A above (eta/2) lambda(A).

    Returns the flagged sub-partition, their union G and its exact measure.
    The per-cell deviations also witness the subadditivity bound: the
    deviation of C is at most the sum over cells of the deviation of C n A.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    flagged = []
    union = IntervalUnion()
    for mask in sorted(jp.cells):
        cell = jp.cells[mask]
        if discrepancy(cell.intersect(c), path, m) > eta / 2 * cell.measure:
            flagged.append((mask, cell))
            union = union.union(cell)
    return CellOvershoot(tuple(flagged), union, union.measure)


def cellwise_deviation_sum(
    jp: JoinPartition, c: IntervalUnion, path: SamplePath, m: int
) -> Fraction:
    """Sum over cells of the deviation of C n cell (subadditivity majorant)."""
    return sum(
        (discrepancy(jp.cells[mask].intersect(c), path, m) for mask in sorted(jp.cells)),
        Fraction(0),
    )


# -- seeded deviation traces ----------------------------------------------------


@dataclass(frozen=True)
class DeviationTrace:
    seed: int
    m_grid: tuple[int, ...]
    values: tuple[Fraction, ...]
    argmax: tuple[int | None, ...]


@dataclass(frozen=True)
class TraceBundle:
    per_seed: tuple[DeviationTrace, ...]
    median_values: tuple[Fraction, ...]
    m_grid: tuple[int, ...]

    def csv_rows(self) -> list[str]:
        """Rows seed,m,gamma_num,gamma_den,gamma_f64,argmax_member."""
        rows = []
        for trace in self.per_seed:
            for m, v, a in zip(trace.m_grid, trace.values, trace.argmax):
                rows.append(
                    f"{trace.seed},{m},{v.numerator},{v.denominator},{float(v)!r},"
                    f"{'' if a is None else a}"
                )
        return rows


def _trace_one(args) -> DeviationTrace:
    spec_json, rows, m_grid, seed, avoid = args
    spec = ProcessSpec.from_json(spec_json).with_seed(seed)
    path = generate(spec, m_grid[-1], avoid=avoid)
    values, argmax = zip(*(_sup_deviation(rows, path.sorted_fixed(m)) for m in m_grid))
    return DeviationTrace(seed, m_grid, values, argmax)


def fan_out(fn, args, workers: int) -> list:
    """[fn(a) for a in args], over a process pool when workers > 1; order is kept."""
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=max(1, len(args) // (4 * workers))))


def deviation_trace(
    fam: SetFamily,
    upto: int,
    spec: ProcessSpec,
    m_grid,
    seeds,
    avoid=(),
    workers: int = 1,
) -> TraceBundle:
    """Per-seed uniform-deviation traces over an ascending m grid.

    The first ``upto`` members are compiled to integer rows once, at the
    spec's precision, and each job carries the rows (they pickle; a
    family's member closures may not). Results are ordered by the seed list
    regardless of worker count, and medians are exact rationals. An empty
    seed list, or an m grid that is empty, not strictly ascending or below
    1, raises ValueError before any job starts, and so does a budget beyond
    the family or a precision the family's members cannot be compiled at.
    """
    m_grid, seeds = tuple(m_grid), list(seeds)
    ascending = all(a < b for a, b in zip(m_grid, m_grid[1:]))
    if not (seeds and m_grid and m_grid[0] >= 1 and ascending):
        raise ValueError("need seeds, and an m grid that is nonempty, strictly ascending and >= 1")
    rows = fam.rows(upto, spec.precision)[:upto]
    jobs = [(spec.to_json(), rows, m_grid, seed, tuple(avoid)) for seed in seeds]
    traces = fan_out(_trace_one, jobs, workers)
    medians = tuple(
        median([t.values[i] for t in traces]) for i in range(len(m_grid))
    )
    return TraceBundle(tuple(traces), medians, m_grid)
