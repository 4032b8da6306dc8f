"""Independent brute-force reference evaluators.

These deliberately avoid the dynamic programs and counting shortcuts used
by the main modules: they enumerate configurations outright and are only
feasible at small sizes. The verification suite and the tests compare fast
implementations against these references; keep the two routes separate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations

from .processes import SamplePath


def brute_k_interval_sup(path: SamplePath, m: int, k: int) -> Fraction:
    """Supremum over unions of <= k intervals by exhaustive enumeration.

    Decomposes [0, 1) into the alternating sequence gap, atom, gap, ...,
    atom, gap induced by the distinct sample values, enumerates every
    selection of at most k disjoint element windows as ordered cut points
    a_1 < b_1 <= a_2 < b_2 <= ..., and evaluates the limit value
    |frequency - measure| of each selection directly. Partially covered
    gaps only shrink the objective, so windows of whole elements realize
    the supremum. Cost grows like (2m)**(2k); use small m, k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sorted_fixed = path.sorted_fixed(m)
    scale = 1 << path.precision
    values = []
    counts = []
    for n in sorted_fixed:
        if values and values[-1] == n:
            counts[-1] += 1
        else:
            values.append(n)
            counts.append(1)
    # Elements: even positions are gaps, odd are atoms.
    freq = []  # scaled by m * scale
    meas = []
    bounds = [0] + values + [scale]
    for i, v in enumerate(values):
        freq.append(0)
        meas.append(m * (v - bounds[i]))
        freq.append(counts[i] * scale)
        meas.append(0)
    freq.append(0)
    meas.append(m * (scale - (values[-1] if values else 0)))
    L = len(freq)
    net = [0, *accumulate(f - g for f, g in zip(freq, meas))]

    def best_from(lo: int, left: int, acc: int) -> int:
        # Every selection that extends the chosen windows, whose net sum is
        # acc, by windows [a, b) with lo <= a < b, up to ``left`` of them.
        best = 0
        for a in range(lo, L):
            for b in range(a + 1, L + 1):
                v = acc + net[b] - net[a]
                best = max(best, abs(v), best_from(b, left - 1, v) if left > 1 else 0)
        return best

    return Fraction(best_from(0, k, 0), m * scale)


def brute_shatter_coefficient(points, sets) -> int:
    """Distinct traces of explicit sets on points, via direct membership."""
    traces = set()
    for s in sets:
        traces.add(frozenset(i for i, x in enumerate(points) if x in s))
    return len(traces)


def brute_vc_dimension(points, sets, max_k: int) -> int:
    """Largest k such that some k-subset of points is fully traced."""
    points = tuple(points)
    best = 0
    for k in range(1, max_k + 1):
        found = False
        for subset in combinations(points, k):
            if brute_shatter_coefficient(subset, sets) == 1 << k:
                found = True
                break
        if not found:
            return best
        best = k
    return best
