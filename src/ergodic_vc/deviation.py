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
family is scored from its ``ScoringTable``, cached on the ``SetFamily`` per
precision: the table lists each distinct threshold once, and each member
as index pairs (a, b), one per part [thresholds[a], thresholds[b]), with
its measure's numerator and denominator. Per prefix every threshold is
ranked in one pass, a member's count is the sum of ranks[b] - ranks[a]
over its pairs, and members are compared by cross-multiplication. A seeded
trace compiles its family's table once, in the parent, and every seed's
job carries the process spec itself and the table's head for the budget,
so each distinct threshold is pickled once.

The k-interval DP makes one pass over the blocks B_t = atom_t + gap_t
between 0, the prefix's distinct points and 1 (an atom counts the points
at a block's left end, a gap weighs the block's measure). Atoms are not
negative and gaps are, so three identities put all four selections on the
blocks: a positive run over atoms a..b is worth B_a + .. + B_b - gap_b; a
negative run starts and ends on gaps, worth -(gap_{a-1} + B_a + .. + B_b);
and an attained union is a plain run of B or of -B. Each block updates four
in-place integer "at most r runs" tables in one downward loop over r.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from statistics import median

from .errors import ResourceLimitError
from .intervals import IntervalUnion, ScoringTable, SetFamily, count_in
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
    hits = count_in(member.thresholds(path.precision), path.sorted_fixed(m))
    return abs(Fraction(hits, m) - member.measure)


def _sup_deviation(table: ScoringTable, sorted_fixed, upto: int) -> tuple[Fraction, int | None]:
    """Largest |frequency - num/den| over the table's first ``upto`` members, first argmax.

    Each threshold those members use is ranked (``bisect_left``) in the
    ascending prefix ``sorted_fixed`` once, and a member's count is the sum
    of ranks[b] - ranks[a] over its index pairs. With m points the value is
    |count * den - num * m| / (m * den), compared across members by
    cross-multiplication. Ties keep the lowest index; no members give
    (0, None).
    """
    m = len(sorted_fixed)
    ranks = list(map(bisect_left, repeat(sorted_fixed), islice(table.thresholds, table.seen[upto])))
    best, best_den, argmax = 0, 1, None
    for i, (pairs, num, den) in enumerate(islice(table.members, upto)):
        hits = 0
        for a, b in pairs:
            hits += ranks[b] - ranks[a]
        gap = abs(hits * den - num * m)
        if gap * best_den > best * den or argmax is None:
            best, best_den, argmax = gap, den, i
    return Fraction(best, m * best_den), argmax


def uniform_deviation(fam: SetFamily, upto: int, path: SamplePath, m: int) -> DeviationResult:
    """Largest member deviation within the budget (first index on ties)."""
    table = fam.rows(upto, path.precision)
    best, argmax = _sup_deviation(table, path.sorted_fixed(m), upto)
    return DeviationResult(best, argmax, upto)


def ks_statistic(path: SamplePath, m: int) -> Fraction:
    """Exact sup_t |#{x_i < t}/m - t| from the order statistics.

    Equals max_i max(i/m - x_(i), x_(i) - (i-1)/m) = max(max up, S - min up)
    / (m*S), S = 2**precision, up_i = i*S - m*(S*x_(i)): one product each.
    """
    sorted_fixed = path.sorted_fixed(m)
    scale = 1 << path.precision
    hi = lo = scale - m * sorted_fixed[0]
    i_scale = scale
    for n in islice(sorted_fixed, 1, None):
        i_scale += scale
        up = i_scale - m * n
        if up > hi:
            hi = up
        elif up < lo:
            lo = up
    return Fraction(max(hi, scale - lo), m * scale)


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


def max_deviation_k_intervals(
    path: SamplePath, m: int, k: int, cost_cap: int = 50_000_000
) -> KIntervalDeviation:
    """Exact sup over unions of <= k half-open intervals of |frequency - measure|.

    Let e_0 = 0 < e_1 < .. < e_r be 0 and the prefix's distinct points, and
    e_{r+1} = 1. Block t is [e_t, e_{t+1}), weighted at scale
    m * 2**precision as B_t = atom_t + gap_t: atom_t = count * 2**precision
    for the points at e_t (atom_0 = 0 when none sits at 0) and
    gap_t = -m * (e_{t+1} - e_t) < 0. The supremum is the best total of at
    most k disjoint runs of the elements atom_0, gap_0, .., atom_r, gap_r
    (positive excess) or of their negatives (negative excess): runs never
    benefit from partially covered gaps. An actual union is a run of blocks.

    One pass over the blocks solves all four selections, since a run loses
    nothing by dropping an end element of the wrong sign:

    * positive excess: a run starts and ends on atoms, so the run over atoms
      a..b is worth B_a + .. + B_b - gap_b;
    * negative excess: a run starts and ends on gaps, so it is worth
      -(gap_{a-1} + B_a + .. + B_b);
    * attained optimum: plain runs of B and of -B.

    Each selection keeps integer tables inn[r] (best of at most r runs, the
    last still open) and out[r] (best of at most r closed runs), updated in
    place. Looping r downward reads out[r - 1] from before the block, so a
    new run starts strictly after the runs it follows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * m > cost_cap:
        raise ResourceLimitError(f"k*m = {k * m} exceeds cost cap {cost_cap}")
    scale = 1 << path.precision
    atoms, gaps = [0], []
    prev = 0
    for n in path.sorted_fixed(m):
        if n == prev:
            atoms[-1] += scale
        else:
            gaps.append(m * (prev - n))
            atoms.append(scale)
            prev = n
    gaps.append(m * (prev - scale))

    # (inn, out) tables: p positive and n negative excess, a attained runs
    # of B and u of -B. A positive run closes on its atom, before the gap.
    pin, pout, nin, nout, ain, aout, uin, uout = ([0] * (k + 1) for _ in range(8))
    down = [(r, r - 1) for r in range(k, 0, -1)]
    for atom, gap in zip(atoms, gaps):
        w = atom + gap
        for r, q in down:
            a, b = pin[r], pout[q]
            a = (a if a > b else b) + w
            pin[r] = a
            a -= gap
            if a > pout[r]:
                pout[r] = a
            a, b = nin[r] - w, nout[q] - gap
            if b > a:
                a = b
            nin[r] = a
            if a > nout[r]:
                nout[r] = a
            a, b = ain[r], aout[q]
            a = (a if a > b else b) + w
            ain[r] = a
            if a > aout[r]:
                aout[r] = a
            a, b = uin[r], uout[q]
            a = (a if a > b else b) - w
            uin[r] = a
            if a > uout[r]:
                uout[r] = a
    sup_best = max(pout[k], nout[k])
    attained_best = max(aout[k], uout[k])
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
    spec, table, m_grid, seed = args
    path = generate(spec.with_seed(seed), m_grid[-1])
    upto = len(table.members)
    values, argmax = zip(*(_sup_deviation(table, path.sorted_fixed(m), upto) for m in m_grid))
    return DeviationTrace(seed, m_grid, values, argmax)


def fan_out(fn, args, workers: int) -> list:
    """[fn(a) for a in args], pooled when workers > 1 (ValueError below 1); order is kept."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=max(1, len(args) // (4 * workers))))


def deviation_trace(
    fam: SetFamily,
    upto: int,
    spec: ProcessSpec,
    m_grid,
    seeds,
    workers: int = 1,
) -> TraceBundle:
    """Per-seed uniform-deviation traces over an ascending m grid.

    The first ``upto`` members are compiled to one ``ScoringTable``, at the
    spec's precision, and each job carries the spec and that table (both
    pickle; a family's member closures may not). Results are ordered by the
    seed list regardless of worker count, and medians are exact rationals.
    An empty seed list, or an m grid that is empty, not strictly ascending
    or below 1, raises ValueError before any job starts, and so does a
    budget beyond the family or a precision the family's members cannot be
    compiled at. A worker count below 1 raises it before the table compiles.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    m_grid, seeds = tuple(m_grid), list(seeds)
    ascending = all(a < b for a, b in zip(m_grid, m_grid[1:]))
    if not (seeds and m_grid and m_grid[0] >= 1 and ascending):
        raise ValueError("need seeds, and an m grid that is nonempty, strictly ascending and >= 1")
    table = fam.rows(upto, spec.precision).head(upto)
    jobs = [(spec, table, m_grid, seed) for seed in seeds]
    traces = fan_out(_trace_one, jobs, workers)
    medians = tuple(
        median([t.values[i] for t in traces]) for i in range(len(m_grid))
    )
    return TraceBundle(tuple(traces), medians, m_grid)
