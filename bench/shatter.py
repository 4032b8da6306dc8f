"""Shatter workload: joins, dimension searches and Sauer counts; no sample paths.

Time goes to join refinement and the subset scan of ``vc_dimension``. No
path is generated, so changes to ``processes`` or ``deviation`` should leave
these numbers unchanged. Families are built fresh inside every op.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ergodic_vc import (
    SetFamily,
    dyadic_class,
    full_join_witness,
    join,
    k_interval_class,
    normalize,
    sauer_bound,
    shatter_coefficient,
    subset_indexed_sets,
    union_family,
    vc_dimension,
)
from ergodic_vc.oracles import brute_shatter_coefficient, brute_vc_dimension

from ops import Op, grid_cells, materialize, stratified_probes, unions_text

# Dimension searches: (family, probe count, max_k, expected dimension).
# Probes are stratified, so the expected dimension holds at every seed;
# searches whose expected dimension is below max_k must scan every subset
# of the next size to prove it is not shattered.
# The eight equal mid-size searches keep op_p90_ms on one kind of op.
FULL_SEARCHES = (
    (("intervals", 1, 3), 16, 2, 2),
    (("intervals", 3, 3), 16, 6, 6),
    (("intervals", 1, 3), 16, 4, 2),
    (("intervals", 2, 3), 16, 6, 4),
    (("dyadic", 4), 32, 4, 2),
    (("dyadic", 5), 32, 3, 2),
    (("union", ("intervals", 1, 3), ("dyadic", 3)), 16, 6, 2),
    (("union", ("intervals", 2, 3), ("dyadic", 3)), 16, 8, 4),
) + ((("intervals", 2, 3), 16, 4, 4),) * 8
TINY_SEARCHES = (
    (("intervals", 1, 3), 16, 2, 2),
    (("intervals", 1, 3), 16, 4, 2),
    (("dyadic", 4), 32, 4, 2),
    (("union", ("intervals", 1, 3), ("dyadic", 3)), 16, 6, 2),
)

# Cells per join whose side of every source is checked; the reference
# digest covers every cell of the seed-independent full joins.
SIDE_CHECKS = 512

# Every Sauer op has one shape, so the median op is the same kind of op at
# every seed: five random halves of the grid shatter some pair of the eight
# points with probability about 0.999, and can never shatter three.
SAUER_POINTS = 8
SAUER_MEMBERS = 5

SIZES = {
    False: {"join_k": (1, 2, 3, 4), "grid_joins": 6, "searches": FULL_SEARCHES, "sauer": 60},
    True: {"join_k": (1, 2, 3), "grid_joins": 2, "searches": TINY_SEARCHES, "sauer": 8},
}


def _list_family(name, unions) -> SetFamily:
    unions = list(unions)
    return SetFamily(name, lambda i: unions[i], size=len(unions))


def _full_join_op(k: int) -> Op:
    def run(t):
        sets = t.call("families.subset_indexed_sets", subset_indexed_sets, k)
        jp = t.call("vc.join", join, sets)
        witness = t.call("vc.full_join_witness", full_join_witness, jp)
        fam = _list_family(f"joined-{k}", sets)
        t.call("intervals.SetFamily.members", materialize, fam)
        s = t.call("vc.shatter_coefficient", shatter_coefficient, witness, fam, fam.size)
        return sets, jp, witness, s

    def record(res):
        sets, jp, witness, s = res
        cells = "|".join(f"{mask}:{jp.cells[mask]}" for mask in sorted(jp.cells))
        return f"{k};{len(jp.cells)};{cells};{unions_text(witness)};{s}"

    def check(res):
        sets, jp, witness, s = res
        problems = _partition_problems(jp)
        if len(jp.cells) != 1 << (1 << k):
            problems.append(f"{len(jp.cells)} cells, want {1 << (1 << k)}")
        if brute_shatter_coefficient(witness, sets) != 1 << k or s != 1 << k:
            problems.append("witness not certified shattered")
        return problems

    return Op(f"join-full-k{k}", "join_full", run, record, check, seeded=False)


def _partition_problems(jp) -> list:
    """Cells tile [0, 1) and sampled cells lie on the side their masks name."""
    problems = []
    if jp.total_measure() != 1:
        problems.append(f"cells cover measure {jp.total_measure()}")
    every_part = [(p.lo, p.hi) for cell in jp.cells.values() for p in cell.parts]
    if normalize(every_part).measure != 1:
        problems.append("cells overlap")
    masks = sorted(jp.cells)
    for mask in masks[:: max(1, len(masks) // SIDE_CHECKS)]:
        cell = jp.cells[mask]
        x = (cell.parts[0].lo + cell.parts[0].hi) / 2
        for j, s in enumerate(jp.sources):
            if (x in s) != bool(mask >> j & 1):
                problems.append(f"cell {mask} on the wrong side of source {j}")
                return problems
    return problems


def _grid_join_op(index: int, rng) -> Op:
    raw = [grid_cells(rng, 16) for _ in range(8)]

    def run(t):
        sets = [t.call("intervals.normalize", normalize, pairs) for pairs in raw]
        return t.call("vc.join", join, sets)

    def record(jp):
        return "|".join(f"{mask}:{jp.cells[mask]}" for mask in sorted(jp.cells))

    return Op(f"join-grid-{index}", "join_grid", run, record, _partition_problems)


def _family(spec):
    if spec[0] == "intervals":
        return [("families.k_interval_class", k_interval_class, spec[1], spec[2])]
    if spec[0] == "dyadic":
        return [("families.dyadic_class", dyadic_class, spec[1])]
    return _family(spec[1]) + _family(spec[2])


def _search_op(index: int, rng, spec, n: int, max_k: int, want: int) -> Op:
    probes = stratified_probes(rng, n)

    def run(t):
        parts = [t.call(name, fn, *args) for name, fn, *args in _family(spec)]
        fam = parts[0] if len(parts) == 1 else t.call("vc.union_family", union_family, "union", *parts)
        members = t.call("intervals.SetFamily.members", materialize, fam)
        return members, t.call("vc.vc_dimension", vc_dimension, fam, fam.size, probes, max_k)

    def record(res):
        return f"{res[1].dim};{res[1].at_cap};{unions_text(res[1].witness)}"

    def check(res):
        members, vd = res
        problems = []
        if vd.dim != want or vd.at_cap != (want == max_k):
            problems.append(f"dimension {vd} on {spec}, want {want}")
        if brute_shatter_coefficient(vd.witness, members) != 1 << vd.dim:
            problems.append("witness not shattered")
        return problems

    return Op(f"dim-{index}", "dim_search", run, record, check)


def _sauer_op(index: int, rng) -> Op:
    p = SAUER_POINTS
    points = tuple(Fraction(2 * n + 1, 128) for n in sorted(rng.sample(range(64), p)))
    raw = [grid_cells(rng, 32) for _ in range(SAUER_MEMBERS)]

    def run(t):
        fam = _list_family(f"random-{index}", [t.call("intervals.normalize", normalize, r) for r in raw])
        members = t.call("intervals.SetFamily.members", materialize, fam)
        s = t.call("vc.shatter_coefficient", shatter_coefficient, points, fam, fam.size)
        vd = t.call("vc.vc_dimension", vc_dimension, fam, fam.size, points, p)
        bound = t.call("vc.sauer_bound", sauer_bound, p, vd.dim)
        return members, s, vd, bound

    def record(res):
        members, s, vd, bound = res
        return f"{unions_text(members)};{s};{vd.dim};{unions_text(vd.witness)};{bound.exact};{bound.poly}"

    def check(res):
        members, s, vd, bound = res
        problems = []
        if s != brute_shatter_coefficient(points, members):
            problems.append("shatter coefficient differs from brute force")
        if vd.dim != brute_vc_dimension(points, members, p):
            problems.append("dimension differs from brute force")
        if s > bound.exact:
            problems.append("shatter coefficient above the Sauer bound")
        return problems

    return Op(f"sauer-{index}", "sauer", run, record, check)


def build(seed: int, tiny: bool = False) -> list[Op]:
    size = SIZES[tiny]
    rng = random.Random(f"shatter/{seed}")
    ops = [_full_join_op(k) for k in size["join_k"]]
    ops += [_grid_join_op(i, rng) for i in range(size["grid_joins"])]
    ops += [_search_op(i, rng, *search) for i, search in enumerate(size["searches"])]
    ops += [_sauer_op(i, rng) for i in range(size["sauer"])]
    return ops
