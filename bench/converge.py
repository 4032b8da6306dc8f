"""Converge workload: seeded paths scored over an ascending m-grid.

Time goes to per-point generation, prefix sorting, member scoring, the KS
statistic and the k-interval DP; ``vc`` does no work. Each path is sorted at
several prefixes, so the per-prefix sort cache shows in peak memory, and
the long doubling paths expose its super-linear generator.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ergodic_vc import (
    doubling_spec,
    dyadic_class,
    generate,
    iid_spec,
    k_interval_class,
    ks_statistic,
    markov_spec,
    max_deviation_k_intervals,
    rotation_spec,
    uniform_deviation,
)
from ergodic_vc.oracles import brute_k_interval_sup

from ops import Op, materialize

KINDS = ("iid-uniform", "rotation", "doubling", "markov")

# Path lengths per op: (kind, length, op count). The shared families are a
# dyadic_class and a k_interval_class that every op of a pass scores. The
# four equal 10k iid paths are where op_p90_ms lands.
SIZES = {
    False: {
        "paths": [(kind, 1_000, 10) for kind in KINDS]
        + [(kind, 10_000, 4 if kind == "iid-uniform" else 2) for kind in KINDS]
        + [("iid-uniform", 200_000, 1), ("doubling", 200_000, 1)],
        "dyadic": 6,
        "intervals": (2, 3),
    },
    True: {
        "paths": [(kind, 100, 1) for kind in KINDS] + [("iid-uniform", 400, 1), ("doubling", 400, 1)],
        "dyadic": 3,
        "intervals": (1, 3),
    },
}

# Doubly stochastic chain on three equal cells, so the marginal is Lebesgue.
MARKOV_MATRIX = [
    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
    [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)],
    [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
]
MARKOV_CELLS = ["[0,1/3)", "[1/3,2/3)", "[2/3,1)"]


def m_grid(length: int) -> tuple[int, ...]:
    """Ascending prefixes from 8 (small enough for the brute-force oracle) to length / 10.

    Stopping at a tenth of the path keeps the 200k-point generators a large
    share of the op next to the O(k m) interval DP.
    """
    return tuple(sorted({8, max(8, length // 100), length // 10}))


def _spec(kind: str, rng):
    seed = rng.randrange(1 << 32)
    if kind == "iid-uniform":
        return iid_spec(seed)
    if kind == "rotation":
        return rotation_spec(seed, x0_fixed=rng.getrandbits(128))
    if kind == "doubling":
        return doubling_spec(seed)
    return markov_spec(MARKOV_MATRIX, MARKOV_CELLS, seed)


def one_interval_sup(path, m: int) -> Fraction:
    """sup over single intervals of |frequency - measure|, from the prefix sides.

    An interval's deviation is a difference of two prefix deviations, so the
    supremum is the largest prefix excess plus the largest prefix shortfall.
    """
    scale = 1 << path.precision
    xs = sorted(path.fixed[:m])
    excess = max(0, max(i * scale - n * m for i, n in enumerate(xs, start=1)))
    shortfall = max(0, max(n * m - (i - 1) * scale for i, n in enumerate(xs, start=1)))
    return Fraction(excess + shortfall, m * scale)


def _families_op(shared: list, size) -> Op:
    def run(t):
        dy = t.call("families.dyadic_class", dyadic_class, size["dyadic"])
        ki = t.call("families.k_interval_class", k_interval_class, *size["intervals"])
        members = [t.call("intervals.SetFamily.members", materialize, fam) for fam in (dy, ki)]
        shared[:] = [dy, ki]
        return members

    def record(members):
        return "|".join(";".join(str(u) for u in group) for group in members)

    def check(members):
        return [] if len(set(members[1])) == len(members[1]) else ["duplicate k-interval members"]

    return Op("families", "families", run, record, check)


def _path_op(index: int, spec, length: int, shared: list) -> Op:
    grid = m_grid(length)

    def run(t):
        dy, ki = shared
        path = t.call("processes.generate", generate, spec, length)
        rows = []
        for m in grid:
            t.call("processes.SamplePath.sorted_fixed", path.sorted_fixed, m)
            rows.append(
                (
                    m,
                    t.call("deviation.ks_statistic", ks_statistic, path, m),
                    t.call("deviation.uniform_deviation", uniform_deviation, dy, dy.size, path, m),
                    t.call("deviation.uniform_deviation", uniform_deviation, ki, ki.size, path, m),
                    t.call("deviation.max_deviation_k_intervals", max_deviation_k_intervals, path, m, 1),
                    t.call("deviation.max_deviation_k_intervals", max_deviation_k_intervals, path, m, 2),
                )
            )
        return path, rows

    def record(res):
        path, rows = res
        out = [",".join(map(str, path.fixed))]
        for m, ks, dd, dk, k1, k2 in rows:
            out.append(
                f"{m};{ks};{dd.value};{dd.argmax};{dk.value};{dk.argmax};"
                f"{k1.value};{k1.attained};{k1.attained_value};"
                f"{k2.value};{k2.attained};{k2.attained_value}"
            )
        return "\n".join(out)

    def check(res):
        path, rows = res
        problems = []
        if path.length != length or not 0 <= min(path.fixed) <= max(path.fixed) < 1 << path.precision:
            problems.append("path has the wrong length or a point outside [0, 1)")
        for m, ks, dd, dk, k1, k2 in rows:
            if path.sorted_fixed(m) != sorted(path.fixed[:m]):
                problems.append(f"prefix {m} not sorted")
            # KS ranges over prefixes [0, t), which are single intervals, and a
            # union of two intervals deviates by at most the sum of its parts.
            if k1.value != one_interval_sup(path, m):
                problems.append(f"k=1 DP differs from the prefix-side supremum at m={m}")
            if not ks <= k1.value <= k2.value <= 2 * k1.value:
                problems.append(f"KS / k-interval ordering broken at m={m}")
            if dd.value > k1.value or dk.value > k2.value:
                problems.append(f"family deviation above the k-interval supremum at m={m}")
            if m == 8 and (k1.value, k2.value) != (
                brute_k_interval_sup(path, m, 1),
                brute_k_interval_sup(path, m, 2),
            ):
                problems.append("k-interval DP differs from brute force")
        return problems

    return Op(f"path-{index}-{spec.kind}-{length}", f"path_{spec.kind}", run, record, check)


def build(seed: int, tiny: bool = False) -> list[Op]:
    size = SIZES[tiny]
    rng = random.Random(f"converge/{seed}")
    shared: list = []
    ops = [_families_op(shared, size)]
    for kind, length, count in size["paths"]:
        for _ in range(count):
            ops.append(_path_op(len(ops), _spec(kind, rng), length, shared))
    return ops
