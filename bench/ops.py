"""What an op is, and the input helpers the three workloads share."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from spans import Tracer


@dataclass(frozen=True)
class Op:
    """One seeded experiment: a short fixed sequence of public calls.

    ``run`` makes the calls through the tracer and returns their results;
    only ``run`` is timed. ``record`` renders the results as exact text (the
    digest input) and ``check`` returns the seed-independent invariants that
    the results break, empty when they all hold. An op that is not
    ``seeded`` has the same inputs at every seed, so its committed
    reference digest applies at every seed.
    """

    id: str
    kind: str
    run: Callable[[Tracer], object]
    record: Callable[[object], str]
    check: Callable[[object], list]
    seeded: bool = True


def grid_cells(rng, count: int, grid: int = 64) -> list[tuple[Fraction, Fraction]]:
    """Raw (lo, hi) pairs of ``count`` distinct cells of the 1/grid grid."""
    return [(Fraction(c, grid), Fraction(c + 1, grid)) for c in sorted(rng.sample(range(grid), count))]


def stratified_probes(rng, n: int) -> tuple[Fraction, ...]:
    """n probe points, point i drawn inside [i/n, (i+1)/n).

    Dyadic families of order up to log2(n) see the same trace structure for
    every seed, so dimension searches cost the same work at every seed while
    the points themselves change.
    """
    return tuple(Fraction(2 * (i * 64 + rng.randrange(64)) + 1, 128 * n) for i in range(n))


def materialize(fam) -> list:
    """Build every member of a finite family (the explicit members() call)."""
    return list(fam.members(fam.size))


def unions_text(unions) -> str:
    return ";".join(str(u) for u in unions)
