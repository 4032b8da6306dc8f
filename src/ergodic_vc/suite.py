"""Shipped experiment suite: one entry per acceptance criterion.

Each criterion runs a fixed, fully seeded experiment and returns a pass/fail
verdict, a human-readable detail line, and a list of exact record lines;
``run_suite`` numbers and times the criteria and applies their time limits.
The concatenated record lines form the suite's byte-comparable artifact:
repeated runs, at any worker count, must reproduce them byte for byte.
Floating point appears only in human-facing details, never in records.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from time import perf_counter

from .deviation import fan_out, ks_statistic, max_deviation_k_intervals, uniform_deviation
from .errors import InsufficientDataError
from .families import dyadic_class, half_interval_class, k_interval_class, subset_indexed_sets
from .functions import (
    discretize_major,
    gamma_split,
    graph_lift,
    lm_bound,
    ramp_family,
    random_piecewise_fn,
)
from .induced import frequency_transfer_identity, induce, kac_ratio, mean_return_time
from .intervals import IntervalUnion, SetFamily, normalize
from .isomorphism import (
    build_map,
    doubling_map_deviation,
    image_of_union,
    measure_preservation_defect,
)
from .oracles import brute_k_interval_sup
from .processes import (
    DOMAIN_FN_GEN,
    fixed_uniform,
    generate,
    iid_spec,
    rotation_spec,
    trajectory_family,
)
from .vc import full_join_witness, join, sauer_bound, shatter_coefficient, union_family, vc_dimension


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    lines: tuple


@dataclass(frozen=True)
class SuiteReport:
    results: tuple
    workers: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def csv_text(self) -> str:
        out = ["# suite exact records v1"]
        for r in self.results:
            out.extend(r.lines)
        return "\n".join(out) + "\n"

    def table(self) -> str:
        rows = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            rows.append(f"{mark}  {r.number:>2}  {r.name}: {r.detail} ({r.seconds:.1f}s)")
        verdict = "all criteria passed" if self.all_passed else "FAILURES PRESENT"
        rows.append(verdict)
        return "\n".join(rows)


class _Det:
    """Deterministic integer draw stream for suite instance generation."""

    def __init__(self, salt: int, index: int):
        self.seed = (salt << 20) ^ index
        self.i = 0

    def next(self, span: int) -> int:
        if span <= 0:
            raise ValueError("span must be positive")
        self.i += 1
        return fixed_uniform(self.seed, DOMAIN_FN_GEN, self.i, 64) * span >> 64


def _rand_union64(d: _Det, cells: int) -> IntervalUnion:
    picked = set()
    while len(picked) < cells:
        picked.add(d.next(64))
    return normalize([(Fraction(c, 64), Fraction(c + 1, 64)) for c in sorted(picked)])


# -- criterion 1: shatter coefficients never beat the binomial bound -----------


def _criterion_sauer():
    violations = 0
    lines = []
    for t in range(500):
        d = _Det(4101, t)
        p = 3 + d.next(10)
        numerators = set()
        while len(numerators) < p:
            numerators.add(d.next(64))
        points = [Fraction(2 * n + 1, 128) for n in sorted(numerators)]
        fam = SetFamily.of(
            f"random-{t}", [_rand_union64(d, d.next(7)) for _ in range(1 + d.next(8))]
        )
        s = shatter_coefficient(points, fam, fam.size)
        v = vc_dimension(fam, fam.size, points, max_k=p).dim
        bound = sauer_bound(p, v).exact
        if s > bound:
            violations += 1
        lines.append(f"1,sauer,{t},{p},{fam.size},{s},{v},{bound}")
    return violations == 0, f"{violations} violations in 500 random families", lines


# -- criterion 2: full joins yield certified shattered witnesses ---------------


def _criterion_join_witness():
    lines = []
    certified = 0
    for k in range(1, 5):
        sets = subset_indexed_sets(k)
        jp = join(sets)
        witness = full_join_witness(jp)
        fam = SetFamily.of(f"joined-{k}", sets)
        s = shatter_coefficient(witness, fam, fam.size)
        if jp.is_full and s == 1 << k:
            certified += 1
        pts = ";".join(str(x) for x in witness)
        lines.append(f"2,witness,{k},{len(jp.cells)},{s},{pts}")
    return certified == 4, f"{certified}/4 full joins certified shattered", lines


# -- criterion 3: known dimensions ---------------------------------------------


def _criterion_dimensions():
    lines = []
    ok = True

    dyadic_probe = [Fraction(2 * i + 1, 64) for i in range(32)]
    dy4 = dyadic_class(4)
    d_dy = vc_dimension(dy4, dy4.size, dyadic_probe, max_k=4).dim
    ok &= d_dy == 2
    lines.append(f"3,dim,dyadic,{d_dy},2")

    probe = [Fraction(2 * i + 1, 32) for i in range(16)]
    interval_fams = {k: k_interval_class(k, 3) for k in (1, 2, 3)}
    base_dims = {}
    for k, fam in interval_fams.items():
        dk = vc_dimension(fam, fam.size, probe, max_k=2 * k + 2).dim
        ok &= dk == 2 * k
        base_dims[f"intervals-{k}"] = dk
        lines.append(f"3,dim,intervals-{k},{dk},{2 * k}")

    dy3 = dyadic_class(3)
    half = half_interval_class()
    shipped = [
        ("dyadic", dy3),
        ("half", SetFamily("half-32", half.member, size=32)),
        ("intervals-1", interval_fams[1]),
        ("intervals-2", interval_fams[2]),
        ("intervals-3", interval_fams[3]),
    ]
    for name, fam in shipped:
        base = base_dims.get(name)
        if base is None:
            base = vc_dimension(fam, fam.size, probe, max_k=6).dim
        u = union_family(f"{name}+dyadic", fam, dy3)
        du = vc_dimension(u, u.size, probe, max_k=base + 4).dim
        ok &= du <= base + 3
        lines.append(f"3,union,{name},{base},{du}")
    return bool(ok), "dyadic 2; interval unions 2k; unions stay within +3", lines


# -- criterion 4: uniform empirical-CDF deviation decays -----------------------


def _c4_one(seed: int):
    path = generate(iid_spec(seed=seed), 10_000)
    return seed, ks_statistic(path, 100), ks_statistic(path, 10_000)


def _criterion_ks(workers: int):
    rows = fan_out(_c4_one, list(range(100)), workers)
    lines = []
    for seed, k100, k10k in rows:
        lines.append(f"4,ks,iid,{seed},100,{k100.numerator},{k100.denominator}")
        lines.append(f"4,ks,iid,{seed},10000,{k10k.numerator},{k10k.denominator}")
    rot = ks_statistic(generate(rotation_spec(seed=1), 10_000), 10_000)
    lines.append(f"4,ks,rotation,1,10000,{rot.numerator},{rot.denominator}")
    med100 = statistics.median([r[1] for r in rows])
    med10k = statistics.median([r[2] for r in rows])
    small = sum(1 for r in rows if r[2] <= Fraction(1, 50))
    passed = med100 >= 5 * med10k and small >= 99 and rot <= Fraction(1, 100)
    detail = (
        f"median ratio {float(med100 / med10k):.1f}x, {small}/100 below 0.02, "
        f"rotation {float(rot):.6f}"
    )
    return passed, detail, lines


# -- criterion 5: orbit atom family pins the deviation at one ------------------


def _criterion_counterexample():
    spec = rotation_spec(seed=9)
    path = generate(spec, 1000)
    fam = trajectory_family(
        spec.params["alpha_fixed"], path.fixed[0], precision=spec.precision, window=64
    )
    lines = []
    passed = True
    for m in (1, 10, 100, 1000):
        dev = uniform_deviation(fam, 16, path, m).value
        passed &= dev == 1
        lines.append(f"5,counterexample,{m},{dev.numerator},{dev.denominator}")
    return passed, "deviation exactly 1 at every m" if passed else "deviation moved off 1", lines


# -- criterion 6: straightening maps are exactly measure preserving ------------


def _criterion_straightening():
    lines = []
    ok = True
    for rep in range(10):
        d = _Det(6006, rep)
        stages = 1 + d.next(6)
        phi = build_map([_rand_union64(d, 1 + d.next(6)) for _ in range(stages)])
        probes = [_rand_union64(d, 1 + d.next(6)) for _ in range(10)]
        worst = measure_preservation_defect(phi, probes)
        ok &= worst == 0
        lines.append(f"6,defect,{rep},{worst.numerator},{worst.denominator}")
        for i in range(5):
            picked = [p.source for p in phi.pieces if d.next(2)]
            if not picked:
                picked = [phi.pieces[0].source]
            aligned = reduce(IntervalUnion.union, picked)
            image, blocks = image_of_union(phi, aligned)
            sym = image.symmetric_difference(blocks).measure
            ok &= sym == 0
            lines.append(f"6,symdiff,{rep},{i},{sym.numerator},{sym.denominator}")
    dev = doubling_map_deviation(8, probe_order=10)
    ok &= dev <= Fraction(1, 128)
    lines.append(f"6,doubling,{dev.numerator},{dev.denominator}")
    detail = f"defects 0 on 100 probes, 50 aligned images exact, doubling sup {dev}"
    return bool(ok), detail, lines


# -- criterion 7: first-return frequency identity ------------------------------


def _criterion_induced():
    lines = []
    holds = 0
    for t in range(1000):
        d = _Det(7007, t)
        for attempt in range(20):
            path = generate(iid_spec(seed=5_000_000 + 37 * t + attempt), 80)
            region = _rand_union64(d, 16 + d.next(17))
            c = _rand_union64(d, 1 + d.next(10))
            try:
                ip = induce(path, region, 8)
            except InsufficientDataError:
                continue
            m = 1 + d.next(8)
            ident = frequency_transfer_identity(ip, c, m)
            holds += ident.holds
            lines.append(
                f"7,identity,{t},{ident.lhs.numerator},{ident.lhs.denominator},"
                f"{int(ident.holds)}"
            )
            break
        else:
            lines.append(f"7,identity,{t},0,1,0")
    rot = generate(rotation_spec(seed=3), 35_000)
    ip = induce(rot, normalize([(0, Fraction(1, 3))]), 10_000)
    w = kac_ratio(ip, 10_000)
    ret = mean_return_time(ip)
    lines.append(f"7,pacing,{w.numerator},{w.denominator}")
    lines.append(f"7,return,{ret.numerator},{ret.denominator}")
    passed = (
        holds == 1000
        and Fraction(19, 20) <= w <= Fraction(21, 20)
        and abs(ret - 3) <= Fraction(3, 10)
    )
    detail = (
        f"{holds}/1000 identities exact, pacing {float(w):.5f}, "
        f"mean return {float(ret):.4f}"
    )
    return passed, detail, lines


# -- criterion 8: graph-lift reductions ----------------------------------------


def _c8_one(seed: int):
    path = generate(iid_spec(seed=1000 + seed), 1000)
    gs = graph_lift(path, yseed=2000 + seed)
    res = gamma_split(ramp_family(10), gs, 1000)
    return seed, res.gamma2, res.bound_ok


def _c8_lines(workers: int):
    rows = fan_out(_c8_one, list(range(100)), workers)
    return [
        f"8,split,{seed},{g2.numerator},{g2.denominator},{int(ok)}"
        for seed, g2, ok in rows
    ], rows


def _criterion_graph_split(workers: int):
    lines = []
    sandwich_ok = 0
    for seed in range(100):
        f = random_piecewise_fn(seed, bound=1, max_pieces=5)
        levels = 3 + seed % 6
        g = discretize_major(f, 1, levels)
        eps = Fraction(2, levels)
        cuts = sorted(set(f.breakpoints[:-1]) | set(g.breakpoints[:-1]))
        probes = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        good = all(g(x) - eps <= f(x) <= g(x) for x in probes)
        sandwich_ok += good
        lines.append(f"8,sandwich,{seed},{int(good)}")
    split_lines, rows = _c8_lines(workers)
    lines.extend(split_lines)
    bound = lm_bound(1000, 2)
    triangle_ok = all(ok for _, _, ok in rows)
    below = sum(1 for _, g2, _ in rows if float(g2) <= bound)
    passed = sandwich_ok == 100 and triangle_ok and below >= 90
    detail = (
        f"sandwich {sandwich_ok}/100, triangle exact on all splits, "
        f"{below}/100 under rate bound {bound:.4f}"
    )
    return passed, detail, lines


# -- criterion 9: dynamic program matches brute force --------------------------


def _criterion_dp_oracle():
    lines = []
    agree = True
    for seed in range(63):
        path = generate(iid_spec(seed=7000 + seed), 8)
        for m in range(1, 9):
            for k in (1, 2):
                dp = max_deviation_k_intervals(path, m, k).value
                agree &= dp == brute_k_interval_sup(path, m, k)
                lines.append(f"9,dp,{seed},{m},{k},{dp.numerator},{dp.denominator}")
    return agree, f"{len(lines)} instances, exact agreement" if agree else "disagreement found", lines


# -- criterion 10: determinism across runs and worker counts -------------------


def _criterion_determinism(ks_lines, graph_lines):
    """Criterion 4 at 1 and 8 workers, the criterion-8 splits at 1 and 8
    workers and criterion 5 twice, each compared with the lines seen."""
    splits_seen = [line for line in graph_lines if line.startswith("8,split,")]
    checks = [
        ("ks-traces", _criterion_ks(1)[2] == _criterion_ks(8)[2] == list(ks_lines)),
        ("graph-splits", _c8_lines(1)[0] == _c8_lines(8)[0] == splits_seen),
        ("orbit-rerun", _criterion_counterexample()[2] == _criterion_counterexample()[2]),
    ]
    lines = [f"10,determinism,{name},{int(ok)}" for name, ok in checks]
    return all(ok for _, ok in checks), "serial, parallel and repeated runs byte-identical", lines


def run_suite(workers: int = 1) -> SuiteReport:
    """Run every shipped acceptance experiment at the given worker count.

    A criterion passes when its experiment passes within its time limit;
    the detail of one that passed only over its limit names the limit.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results = []
    criteria = (
        ("shatter-vs-binomial-bound", 60, _criterion_sauer),
        ("join-witness", math.inf, _criterion_join_witness),
        ("known-dimensions", math.inf, _criterion_dimensions),
        ("uniform-ks-decay", 120, partial(_criterion_ks, workers)),
        ("orbit-atom-family", math.inf, _criterion_counterexample),
        ("straightening-exactness", math.inf, _criterion_straightening),
        ("first-return-identity", math.inf, _criterion_induced),
        ("graph-split-bounds", math.inf, partial(_criterion_graph_split, workers)),
        ("dp-vs-brute", math.inf, _criterion_dp_oracle),
        ("determinism", math.inf, lambda: _criterion_determinism(results[3].lines, results[7].lines)),
    )
    for number, (name, limit, criterion) in enumerate(criteria, 1):
        t0 = perf_counter()
        passed, detail, lines = criterion()
        seconds = perf_counter() - t0
        if passed and seconds >= limit:
            passed, detail = False, f"{detail}, over the {limit} s limit"
        results.append(CriterionResult(number, name, passed, detail, seconds, tuple(lines)))
    return SuiteReport(tuple(results), workers)
