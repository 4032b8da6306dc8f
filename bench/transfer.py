"""Transfer workload: straightening, first returns and function reductions.

Many short inputs, so per-call overhead outweighs per-point cost: a
vectorised generator that wins on ``converge`` could lose here. The
interval algebra here mostly builds unions (normalize, intersections and
differences), where ``shatter`` mostly tests membership.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ergodic_vc import (
    InsufficientDataError,
    build_map,
    deviation_transfer_bound,
    discretize_major,
    doubling_map_deviation,
    dyadic_class,
    frequency_transfer_identity,
    gamma_fn,
    gamma_split,
    generate,
    graph_lift,
    iid_spec,
    image_of_union,
    induce,
    induced_uniform_deviation,
    kac_ratio,
    max_deviation_k_intervals,
    mean_return_time,
    measure_preservation_defect,
    normalize,
    ramp_family,
    random_piecewise_fn,
    rotation_spec,
)
from ergodic_vc.oracles import brute_k_interval_sup

from ops import Op, grid_cells, materialize, unions_text

SIZES = {
    False: {
        "straighten": 20,
        "doubling_stages": range(1, 9),
        "first_return": 100,
        "rotation": (35_000, 10_000),
        "discretize": 40,
        "graph_lift": (20, 1000),
        "dp": 30,
    },
    True: {
        "straighten": 2,
        "doubling_stages": range(1, 3),
        "first_return": 4,
        "rotation": (3_500, 1_000),
        "discretize": 2,
        "graph_lift": (1, 100),
        "dp": 2,
    },
}

RETURN_ATTEMPTS = 20


def _straighten_op(index: int, rng) -> Op:
    filtration = [grid_cells(rng, 1 + (index + j) % 6) for j in range(1 + index % 6)]
    probes = [grid_cells(rng, 1 + j % 6) for j in range(10)]
    picks = [rng.getrandbits(64) for _ in range(5)]

    def run(t):
        sets = [t.call("intervals.normalize", normalize, pairs) for pairs in filtration]
        phi = t.call("isomorphism.build_map", build_map, sets)
        unions = [t.call("intervals.normalize", normalize, pairs) for pairs in probes]
        defect = t.call("isomorphism.measure_preservation_defect", measure_preservation_defect, phi, unions)
        images = []
        for bits in picks:
            chosen = [p.source for i, p in enumerate(phi.pieces) if bits >> (i % 64) & 1]
            chosen = chosen or [phi.pieces[0].source]
            aligned = t.call(
                "intervals.normalize", normalize, [(q.lo, q.hi) for src in chosen for q in src.parts]
            )
            image, blocks = t.call("isomorphism.image_of_union", image_of_union, phi, aligned)
            sym = t.call("intervals.IntervalUnion.symmetric_difference", image.symmetric_difference, blocks)
            images.append((aligned, image, sym))
        return phi, defect, images

    def record(res):
        phi, defect, images = res
        pieces = "|".join(f"{p.source}@{p.beta}" for p in phi.pieces)
        return f"{pieces};{defect};" + "|".join(unions_text(row) for row in images)

    def check(res):
        phi, defect, images = res
        problems = [] if defect == 0 else [f"measure-preservation defect {defect}"]
        for aligned, image, sym in images:
            if not sym.is_empty or image.measure != aligned.measure:
                problems.append("image differs from its straightened blocks")
        return problems

    return Op(f"straighten-{index}", "straighten", run, record, check)


def _doubling_op(stage: int) -> Op:
    def run(t):
        return t.call("isomorphism.doubling_map_deviation", doubling_map_deviation, stage, 10)

    def check(dev):
        return [] if dev <= Fraction(1, 1 << stage) else [f"doubling deviation {dev} at stage {stage}"]

    return Op(f"doubling-{stage}", "doubling", run, str, check, seeded=False)


def _first_return_op(index: int, rng) -> Op:
    # Regions of 8 to 24 cells: on the small ones 80 points often hold fewer
    # than 8 returns, so the retry path runs.
    region_pairs = grid_cells(rng, 8 + index % 17)
    c_pairs = grid_cells(rng, 1 + index % 10)
    m = 1 + index % 8
    base_seed = rng.randrange(1 << 32)

    def run(t):
        region = t.call("intervals.normalize", normalize, region_pairs)
        c = t.call("intervals.normalize", normalize, c_pairs)
        for attempt in range(RETURN_ATTEMPTS):
            path = t.call("processes.generate", generate, iid_spec(base_seed + attempt), 80)
            try:
                ip = t.call("induced.induce", induce, path, region, 8)
            except InsufficientDataError:
                t.count("induced.retries", 1)
                t.count("induced.points_scanned", path.length)
                continue
            return attempt, ip, t.call("induced.frequency_transfer_identity", frequency_transfer_identity, ip, c, m)
        raise InsufficientDataError(f"no path with 8 returns in {RETURN_ATTEMPTS} attempts", 0)

    def record(res):
        attempt, ip, ident = res
        return f"{attempt};{ip.hits};{ident.lhs};{ident.rhs};{ident.pacing}"

    def check(res):
        attempt, ip, ident = res
        region = normalize(region_pairs)
        hits = [i for i, x in enumerate(ip.base.points(), start=1) if x in region][:8]
        problems = [] if ident.holds else ["frequency transfer identity fails"]
        if hits != list(ip.hits):
            problems.append("return times differ from a direct scan")
        return problems

    return Op(f"first-return-{index}", "first_return", run, record, check)


def _rotation_op(rng, length: int, returns: int) -> Op:
    x0 = rng.getrandbits(128)
    region_pairs = grid_cells(rng, 24)
    c_pairs = grid_cells(rng, 8)

    def run(t):
        path = t.call("processes.generate", generate, rotation_spec(x0_fixed=x0), length)
        region = t.call("intervals.normalize", normalize, region_pairs)
        c = t.call("intervals.normalize", normalize, c_pairs)
        ip = t.call("induced.induce", induce, path, region, returns)
        pacing = t.call("induced.kac_ratio", kac_ratio, ip, returns)
        mean_return = t.call("induced.mean_return_time", mean_return_time, ip)
        ident = t.call("induced.frequency_transfer_identity", frequency_transfer_identity, ip, c, returns)
        fam = t.call("families.dyadic_class", dyadic_class, 4)
        t.call("intervals.SetFamily.members", materialize, fam)
        dev = t.call("induced.induced_uniform_deviation", induced_uniform_deviation, ip, fam, fam.size, returns)
        bound = t.call("induced.deviation_transfer_bound", deviation_transfer_bound, ip, fam, fam.size, returns)
        return ip, pacing, mean_return, ident, dev, bound

    def record(res):
        ip, pacing, mean_return, ident, dev, bound = res
        return (
            f"{ip.hits[-1]};{pacing};{mean_return};{ident.lhs};{ident.rhs};{dev.value};{dev.argmax};"
            f"{bound.induced_deviation};{bound.base_deviation};{bound.lower_bound}"
        )

    def check(res):
        ip, pacing, mean_return, ident, dev, bound = res
        problems = [] if ident.holds else ["frequency transfer identity fails"]
        # An irrational rotation returns at the Kac rate 1 / lambda(A) = 8/3.
        if not Fraction(19, 20) <= pacing <= Fraction(21, 20) or abs(mean_return * 3 / 8 - 1) > Fraction(1, 10):
            problems.append(f"rotation pacing {pacing}, mean return {mean_return}")
        return problems

    return Op("rotation-returns", "rotation_returns", run, record, check)


def _discretize_op(index: int, rng) -> Op:
    fn_seed = rng.randrange(1 << 32)
    levels = 3 + index % 6

    def run(t):
        f = t.call("functions.random_piecewise_fn", random_piecewise_fn, fn_seed, 1, 5)
        return f, t.call("functions.discretize_major", discretize_major, f, 1, levels)

    def record(res):
        return f"{res[0].to_json()};{res[1].to_json()}"

    def check(res):
        f, g = res
        eps = Fraction(2, levels)
        cuts = sorted(set(f.breakpoints[:-1]) | set(g.breakpoints[:-1]))
        probes = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:] + [Fraction(1)])]
        return [] if all(g(x) - eps <= f(x) <= g(x) for x in probes) else ["staircase sandwich fails"]

    return Op(f"discretize-{index}", "discretize", run, record, check)


def _graph_lift_op(index: int, rng, m: int) -> Op:
    path_seed, y_seed = rng.randrange(1 << 32), rng.randrange(1 << 32)

    def run(t):
        path = t.call("processes.generate", generate, iid_spec(path_seed), m)
        gs = t.call("functions.graph_lift", graph_lift, path, y_seed)
        fns = t.call("functions.ramp_family", ramp_family, 10)
        return fns, gs, t.call("functions.gamma_split", gamma_split, fns, gs, m)

    def record(res):
        split = res[2]
        return (
            f"{split.gamma};{split.gamma1};{split.gamma2};{split.scale};"
            f"{split.gamma_argmax};{split.gamma1_argmax};{split.gamma2_argmax}"
        )

    def check(res):
        fns, gs, split = res
        problems = [] if split.gamma <= split.gamma1 + split.gamma2 else ["gamma above gamma1 + gamma2"]
        if gamma_fn(fns, gs.path, m).value != split.gamma:
            problems.append("split gamma differs from the direct deviation")
        return problems

    return Op(f"graph-lift-{index}", "graph_lift", run, record, check)


def _dp_op(index: int, rng) -> Op:
    path_seed = rng.randrange(1 << 32)
    cases = [(m, k) for m in range(1, 9) for k in (1, 2)]

    def run(t):
        path = t.call("processes.generate", generate, iid_spec(path_seed), 8)
        return path, [
            t.call("deviation.max_deviation_k_intervals", max_deviation_k_intervals, path, m, k) for m, k in cases
        ]

    def record(res):
        return "|".join(f"{r.value};{r.attained};{r.attained_value}" for r in res[1])

    def check(res):
        path, results = res
        for (m, k), r in zip(cases, results):
            if r.value != brute_k_interval_sup(path, m, k):
                return [f"k-interval DP differs from brute force at m={m}, k={k}"]
        return []

    return Op(f"dp-{index}", "dp", run, record, check)


def build(seed: int, tiny: bool = False) -> list[Op]:
    size = SIZES[tiny]
    rng = random.Random(f"transfer/{seed}")
    ops = [_straighten_op(i, rng) for i in range(size["straighten"])]
    ops += [_doubling_op(stage) for stage in size["doubling_stages"]]
    ops += [_first_return_op(i, rng) for i in range(size["first_return"])]
    ops.append(_rotation_op(rng, *size["rotation"]))
    ops += [_discretize_op(i, rng) for i in range(size["discretize"])]
    ops += [_graph_lift_op(i, rng, size["graph_lift"][1]) for i in range(size["graph_lift"][0])]
    ops += [_dp_op(i, rng) for i in range(size["dp"])]
    return ops
