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
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
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


def _sup_deviation(pairs, sorted_fixed, precision: int) -> tuple[Fraction, int | None]:
    """Largest |frequency - target| over (member, target) pairs, first argmax.

    Frequencies are counts over the whole ascending prefix ``sorted_fixed``.
    Ties keep the lowest index; no pairs give (0, None).
    """
    m = len(sorted_fixed)
    best = Fraction(0)
    argmax = None
    for i, (member, target) in enumerate(pairs):
        value = abs(Fraction(member.count_fixed(sorted_fixed, precision), m) - target)
        if argmax is None or value > best:
            best, argmax = value, i
    return best, argmax


def uniform_deviation(fam: SetFamily, upto: int, path: SamplePath, m: int) -> DeviationResult:
    """Largest member deviation within the budget (first index on ties)."""
    fam.check_budget(upto)
    pairs = ((c, c.measure) for c in map(fam.member, range(upto)))
    best, argmax = _sup_deviation(pairs, path.sorted_fixed(m), path.precision)
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
    """Max total of at most k disjoint nonempty runs (empty choice = 0)."""
    neg = None
    out = [0] + [neg] * k  # out[r]: best with r completed runs
    inn = [neg] * (k + 1)  # inn[r]: best with r runs, r-th still open
    for w in weights:
        new_inn = [neg] * (k + 1)
        for r in range(1, k + 1):
            best = inn[r]
            if out[r - 1] is not neg and (best is neg or out[r - 1] > best):
                best = out[r - 1]
            if best is not neg:
                new_inn[r] = best + w
        inn = new_inn
        for r in range(1, k + 1):
            if inn[r] is not neg and (out[r] is neg or inn[r] > out[r]):
                out[r] = inn[r]
    return max(v for v in out if v is not neg)


def _grouped(sorted_fixed):
    """Distinct values with multiplicities from an ascending list."""
    values, counts = [], []
    for n in sorted_fixed:
        if values and values[-1] == n:
            counts[-1] += 1
        else:
            values.append(n)
            counts.append(1)
    return values, counts


def max_deviation_k_intervals(
    path: SamplePath, m: int, k: int, cost_cap: int = 50_000_000
) -> KIntervalDeviation:
    """Exact sup over unions of <= k half-open intervals of |frequency - measure|.

    Split into a positive excess (frequency above measure) and a negative
    excess; each is a best-choice of at most k disjoint runs over the
    alternating sample-point / gap sequence, solved by dynamic programming
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
    sorted_fixed = path.sorted_fixed(m)
    scale = 1 << path.precision
    values, counts = _grouped(sorted_fixed)
    r = len(values)

    # Positive side: atoms +count*scale, interior gaps -m*length.
    pos = []
    for i in range(r):
        if i:
            pos.append(-m * (values[i] - values[i - 1]))
        pos.append(counts[i] * scale)
    # Negative side: gaps +m*length (with boundary gaps), atoms -count*scale.
    neg = [m * (values[0] - 0)] if r else [m * scale]
    for i in range(r):
        neg.append(-counts[i] * scale)
        nxt = values[i + 1] if i + 1 < r else scale
        neg.append(m * (nxt - values[i]))
    sup_best = max(_max_k_segments(pos, k), _max_k_segments(neg, k))

    # Attainable optimum: runs of half-open blocks [e_t, e_{t+1}) over the
    # endpoint grid e = (0, v_1, .., v_r, 1); block t >= 1 contains atom v_t.
    bounds = [0] + values + [scale]
    attain = []
    for t in range(len(bounds) - 1):
        mass = counts[t - 1] * scale if t >= 1 else 0
        attain.append(mass - m * (bounds[t + 1] - bounds[t]))
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
    spec_json, family_builder, upto, m_grid, seed, avoid = args
    spec = ProcessSpec.from_json(spec_json).with_seed(seed)
    path = generate(spec, max(m_grid), avoid=avoid)
    fam = family_builder()
    values, argmax = [], []
    for m in m_grid:
        res = uniform_deviation(fam, upto, path, m)
        values.append(res.value)
        argmax.append(res.argmax)
    return DeviationTrace(seed, tuple(m_grid), tuple(values), tuple(argmax))


def fan_out(fn, args, workers: int) -> list:
    """[fn(a) for a in args], over a process pool when workers > 1; order is kept."""
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=max(1, len(args) // (4 * workers))))


def deviation_trace(
    fam_builder,
    upto: int,
    spec: ProcessSpec,
    m_grid,
    seeds,
    avoid=(),
    workers: int = 1,
) -> TraceBundle:
    """Per-seed uniform-deviation traces over an ascending m grid.

    ``fam_builder`` is a zero-argument callable producing the family (kept
    as a builder so jobs pickle cheaply for process pools). Results are
    ordered by the seed list regardless of worker count, and medians are
    exact rationals.
    """
    m_grid = tuple(m_grid)
    if any(a >= b for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError("m grid must be strictly ascending")
    jobs = [
        (spec.to_json(), fam_builder, upto, m_grid, seed, tuple(avoid)) for seed in seeds
    ]
    traces = fan_out(_trace_one, jobs, workers)
    medians = tuple(
        median([t.values[i] for t in traces]) for i in range(len(m_grid))
    )
    return TraceBundle(tuple(traces), medians, m_grid)
