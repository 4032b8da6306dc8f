"""First returns of a path to a region, and finite induced-path identities.

For a region A with positive measure, the return times tau_1 < tau_2 < ...
are the indices whose points land in A, with tau_0 = 0 as a formal anchor
(a one-sided path has no observation at index 0, so the anchor is never a
sample). The induced path is x_{tau_1}, x_{tau_2}, .. and the frequency of
C along it is a rescaled count of visits to C n A along the base path:

    (1/m) sum_{l<=m} [x_{tau_l} in C]
        = lambda(A)^-1 * W * (1/tau_m) sum_{j<=tau_m} [x_j in C n A],

with W = lambda(A) * tau_m / m. ``kac_ratio`` tracks the analogous pacing
factor lambda(A) * tau_{m-1} / m, which tends to one exactly when returns
arrive at the Kac rate 1/lambda(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientDataError
from .deviation import DeviationResult, _sup_deviation
from .intervals import IntervalUnion, SetFamily, ceil_fixed
from .processes import AtomSet, SamplePath


@dataclass(frozen=True)
class InducedPath:
    """Return times into ``region`` and the points observed there.

    ``hits`` holds the 1-based return indices tau_1..tau_L; ``taus``
    prepends the formal anchor tau_0 = 0. ``induced_fixed[l-1]`` is the
    numerator of the l-th induced point x_{tau_l}.
    """

    base: SamplePath
    region: IntervalUnion
    hits: tuple[int, ...]

    @property
    def taus(self) -> tuple[int, ...]:
        return (0,) + self.hits

    @property
    def count(self) -> int:
        return len(self.hits)

    @property
    def induced_fixed(self) -> tuple[int, ...]:
        return tuple(self.base.fixed[t - 1] for t in self.hits)

    def induced_path(self) -> SamplePath:
        return SamplePath(self.base.spec, self.base.precision, self.induced_fixed)


def induce(path: SamplePath, region: IntervalUnion, count: int) -> InducedPath:
    """Collect the first ``count`` returns of the path to the region."""
    if region.measure == 0:
        raise ValueError("region must have positive measure")
    if count < 1:
        raise ValueError("count must be >= 1")
    thresholds = [
        (ceil_fixed(part.lo, path.precision), ceil_fixed(part.hi, path.precision))
        for part in region.parts
    ]
    hits = []
    for i, n in enumerate(path.fixed, start=1):
        for lo, hi in thresholds:
            if lo <= n < hi:
                hits.append(i)
                break
        if len(hits) == count:
            break
    if len(hits) < count:
        raise InsufficientDataError(
            f"only {len(hits)} of {count} returns observed", len(hits)
        )
    return InducedPath(path, region, tuple(hits))


def kac_ratio(ip: InducedPath, m: int) -> Fraction:
    """lambda(A) * tau_{m-1} / m, exactly (zero at m = 1 by the anchor)."""
    if not 1 <= m <= ip.count + 1:
        raise InsufficientDataError(f"kac ratio needs m-1 <= {ip.count}", ip.count)
    return ip.region.measure * Fraction(ip.taus[m - 1], m)


def mean_return_time(ip: InducedPath) -> Fraction:
    """Average gap between consecutive returns (needs two hits)."""
    if ip.count < 2:
        raise InsufficientDataError("mean return time needs >= 2 hits", ip.count)
    return Fraction(ip.hits[-1] - ip.hits[0], ip.count - 1)


@dataclass(frozen=True)
class TransferIdentity:
    lhs: Fraction
    rhs: Fraction
    pacing: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def frequency_transfer_identity(
    ip: InducedPath, c, m: int
) -> TransferIdentity:
    """Check the exact induced-frequency identity on the first m returns.

    lhs counts induced points in C; rhs rescales the base-path count of
    visits to C n A on the first tau_m observations by W / lambda(A) with
    W = lambda(A) tau_m / m. The two sides agree identically; the check
    recomputes both from raw counts.
    """
    if not 1 <= m <= ip.count:
        raise InsufficientDataError(f"identity needs m <= {ip.count}", ip.count)
    precision = ip.base.precision
    induced = ip.induced_fixed[:m]
    lhs_hits = sum(1 for n in induced if Fraction(n, 1 << precision) in c)
    lhs = Fraction(lhs_hits, m)
    tau_m = ip.hits[m - 1]
    base_prefix = sorted(ip.base.fixed[:tau_m])
    region_c = _intersect_member(c, ip.region)
    rhs_hits = region_c.count_fixed(base_prefix, precision)
    pacing = ip.region.measure * Fraction(tau_m, m)
    rhs = (1 / ip.region.measure) * pacing * Fraction(rhs_hits, tau_m)
    return TransferIdentity(lhs, rhs, pacing)


def _intersect_member(c, region: IntervalUnion):
    if isinstance(c, IntervalUnion):
        return c.intersect(region)
    # Finite atom member: keep atoms inside the region.
    kept = [n for n, x in zip(c.fixed, c.atoms()) if x in region]
    return AtomSet(kept, c.precision)


def induced_uniform_deviation(
    ip: InducedPath, fam: SetFamily, upto: int, m: int
) -> DeviationResult:
    """Uniform deviation of the induced path against the induced marginal.

    Member C is scored as |freq_m(C on induced path) - lambda(C n A) /
    lambda(A)|, the stationary law of the process seen only inside A.
    """
    if not 1 <= m <= ip.count:
        raise InsufficientDataError(f"deviation needs m <= {ip.count}", ip.count)
    fam.check_budget(upto)
    mu = ip.region.measure
    pairs = (
        (c, _intersect_member(c, ip.region).measure / mu)
        for c in map(fam.member, range(upto))
    )
    best, argmax = _sup_deviation(pairs, sorted(ip.induced_fixed[:m]), ip.base.precision)
    return DeviationResult(best, argmax, upto)


@dataclass(frozen=True)
class TransferBound:
    induced_deviation: Fraction
    base_deviation: Fraction
    pacing: Fraction
    lower_bound: Fraction

    @property
    def holds(self) -> bool:
        return self.induced_deviation >= self.lower_bound


def deviation_transfer_bound(
    ip: InducedPath, fam: SetFamily, upto: int, m: int
) -> TransferBound:
    """Compare the induced deviation with its transfer lower bound.

    The bound lambda(A)^-1 Gamma_{tau_{m-1}}(C n A) - |W_m - 1| is the
    asymptotic transfer inequality evaluated at finite m with W_m =
    kac_ratio(ip, m); it requires m >= 2 so the base prefix is nonempty.
    Expected to hold on ergodic inputs where the pacing is near one; it is
    not a theorem at fixed finite m.
    """
    if m < 2:
        raise ValueError("transfer bound needs m >= 2")
    induced_dev = induced_uniform_deviation(ip, fam, upto, m).value
    tau = ip.taus[m - 1]
    pieces = (_intersect_member(c, ip.region) for c in map(fam.member, range(upto)))
    base_dev, _ = _sup_deviation(
        ((c, c.measure) for c in pieces), sorted(ip.base.fixed[:tau]), ip.base.precision
    )
    pacing = kac_ratio(ip, m)
    lower = base_dev / ip.region.measure - abs(pacing - 1)
    return TransferBound(induced_dev, base_dev, pacing, lower)
