"""Exact set algebra for finite unions of half-open subintervals of [0, 1).

A union is stored as one positive denominator ``den`` and a flat ascending
tuple ``ends`` of integers, lo_0 < hi_0 < lo_1 < ..., both reduced by their
gcd, so equal sets have equal fields and measures, intersections and
symmetric differences are computed without any rounding. The half-open
convention [lo, hi) makes refinements genuine partitions: no point is
counted twice, and single points carry measure zero.

Every boolean operation and ``vc.join`` run one endpoint sweep (``segments``):
operands go to the lcm of their denominators, each end becomes a signed step,
and the steps summed in order give each segment's membership mask. Raw pairs
(``from_pairs``, ``normalize``) merge from their sorted lows and highs: a gap
opens before the i-th low exactly when the (i-1)-th high lies below it. Both
emit ascending ends in range, which ``from_sweep`` builds unchecked. Other
modules read ends only through ``rescaled`` and build unions only through
``from_ends``, ``from_pairs`` and, for sweep output and ends a family
enumerates ascending in range, ``from_sweep``.

Points are counted one way: ``count_in`` takes a member's ``thresholds``
and an ascending prefix of fixed-point numerators, and returns the
alternating sum of the thresholds' ranks in it. Traces are read by ranks
too: ``traces`` sorts a grid once and, per member, bisects a union's ends
among the grid's floors over its denominator (or the floors among the
ends), one bit mask per member. Families are scored from a ``ScoringTable``,
which only ``scoring_table`` compiles: each distinct threshold once, and
each member as index pairs into them.

A small text form is supported for configs and reports::

    union := term (' u ' term)*
    term  := '[' rat ',' rat ')'
    rat   := int ('/' int)?

Spaces may stand around a term's brackets and comma and around ``u``, not
inside a rat. ``parse_union`` reads each term with one pattern, and it and
``str()`` round-trip on normalized unions (the empty
union prints and parses as the empty string).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


def ceil_fixed(x, precision: int, den: int = 1) -> int:
    """Least numerator n with n / 2**precision >= x / den (exact threshold).

    ``x`` is a Fraction or an int.
    """
    return -((-x.numerator << precision) // (x.denominator * den))


def _check_endpoint(x: Fraction) -> Fraction:
    if not ZERO <= x <= ONE:
        raise ValueError(f"endpoint {x} outside [0, 1]")
    return x


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open interval [lo, hi) with rational endpoints in [0, 1]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        _check_endpoint(self.lo)
        _check_endpoint(self.hi)
        if self.lo >= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x < self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"


class IntervalUnion:
    """Normalized finite union of disjoint, non-touching half-open intervals.

    The union is [ends[0]/den, ends[1]/den) u [ends[2]/den, ends[3]/den) u
    ...; ``parts`` builds those ``Interval``s on demand. ``IntervalUnion(parts)``
    takes normalized ``Interval``s and ``from_ends`` takes the integer form.
    Instances are immutable and hashable; all boolean operations return new
    normalized unions and are safe to share across threads or processes.
    """

    __slots__ = ("den", "ends")

    def __init__(self, parts: Sequence[Interval] = ()):
        rats = [x for p in parts for x in (p.lo, p.hi)]
        den = lcm(*(x.denominator for x in rats))
        u = IntervalUnion.from_ends(den, [x.numerator * (den // x.denominator) for x in rats])
        self.den, self.ends = u.den, u.ends

    @classmethod
    def from_ends(cls, den: int, ends: Iterable[int]) -> "IntervalUnion":
        """The union of [ends[2i]/den, ends[2i+1]/den); ends strictly ascending in [0, den]."""
        ends = tuple(ends)
        if den < 1 or len(ends) % 2:
            raise ValueError(f"need den >= 1 and an even number of ends, got {den}, {len(ends)}")
        if ends and not (0 <= ends[0] and ends[-1] <= den):
            raise ValueError(f"ends outside [0, {den}]")
        if not all(map(lt, ends, islice(ends, 1, None))):
            raise ValueError("parts not normalized: ends must be strictly ascending")
        return from_sweep(den, ends)

    # -- basic queries ----------------------------------------------------

    @property
    def parts(self) -> tuple[Interval, ...]:
        e, d = self.ends, self.den
        return tuple(Interval(Fraction(e[i], d), Fraction(e[i + 1], d)) for i in range(0, len(e), 2))

    @property
    def is_empty(self) -> bool:
        return not self.ends

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(self.ends[1::2]) - sum(self.ends[::2]), self.den)

    def __contains__(self, x) -> bool:
        # x lies inside when an odd number of ends are <= floor(x * den).
        return bisect_right(self.ends, x.numerator * self.den // x.denominator) % 2 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalUnion) and self.den == other.den and self.ends == other.ends
        )

    def __hash__(self) -> int:
        return hash((self.den, self.ends))

    def __str__(self) -> str:
        return " u ".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"IntervalUnion({str(self)!r})"

    # -- boolean algebra ---------------------------------------------------

    def complement(self) -> "IntervalUnion":
        """Complement within the unit interval [0, 1)."""
        return _kept(*segments((self,)), lambda mask: mask == 0)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        return _kept(*segments((self, other)), lambda mask: mask == 3)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return _kept(*segments((self, other)), lambda mask: mask != 0)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return _kept(*segments((self, other)), lambda mask: mask == 1)

    def symmetric_difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return _kept(*segments((self, other)), lambda mask: mask in (1, 2))

    __and__ = intersect
    __or__ = union
    __sub__ = difference
    __xor__ = symmetric_difference

    def __invert__(self) -> "IntervalUnion":
        return self.complement()

    # -- exact point counting ----------------------------------------------

    def thresholds(self, precision: int) -> list[int]:
        """``ceil_fixed`` of every end, at the given precision.

        The point n / 2**precision lies in the union exactly when an odd
        number of thresholds are <= n; ``count_in`` counts a sorted prefix.
        """
        return [ceil_fixed(e, precision, self.den) for e in self.ends]


def count_in(thresholds: Sequence[int], sorted_fixed: Sequence[int]) -> int:
    """How many of the ascending numerators ``sorted_fixed`` lie in a member.

    ``thresholds`` are the member's, at the numerators' precision: a point
    lies inside when an odd number of them are <= it, so the count is the
    alternating sum -r_0 + r_1 - r_2 + ... of their ranks (``bisect_left``).
    """
    ranks = [bisect_left(sorted_fixed, t) for t in thresholds]
    return sum(ranks[1::2]) - sum(ranks[::2])


# A family's members share few denominators; the bound keeps one whose
# members all differ from holding a floor list per member.
_FLOOR_DENS = 64


def traces(points: Sequence, members: Iterable) -> tuple[list[int], list[int]]:
    """The trace reader: (order, one row per member) over the given points.

    ``order`` lists the point indices in ascending order of the points, and
    bit s of a row is set when points[order[s]] lies in the member, so equal
    traces give equal rows. Points may repeat and lie outside [0, 1).

    The points go on one denominator D, the lcm of theirs, and are sorted
    once. Over a union's denominator den, point n / D has the floor
    n * den // D: the integer ``in`` compares with the ends, so the point
    lies inside when an odd number of ends are <= its floor. The floors
    ascend with the points and are kept per denominator, for at most
    ``_FLOOR_DENS`` denominators at a time. Each union bisects the shorter
    of its two lists into the longer: with no more ends than points, its
    row toggles at the rank (``bisect_left``) of each end among the floors,
    as ``count_in`` counts; otherwise each floor is placed among the ends.
    Any other member is read by ``in``, once per point.
    """
    ratios = [x.as_integer_ratio() for x in points]
    D = lcm(*[d for _, d in ratios])
    fixed = [n * (D // d) for n, d in ratios]
    order = sorted(range(len(fixed)), key=fixed.__getitem__)
    fixed.sort()
    floors: dict[int, list[int]] = {}
    rows = []
    for member in members:
        row = 0
        if isinstance(member, IntervalUnion):
            den, ends = member.den, member.ends
            at = floors.get(den)
            if at is None:
                if len(floors) == _FLOOR_DENS:
                    floors.clear()
                at = floors[den] = [n * den // D for n in fixed]
            if len(ends) <= len(at):
                # Ranks r_0 <= r_1 <= ... make row the alternating sum
                # (2**r_1 - 2**r_0) + (2**r_3 - 2**r_2) + ...
                for e in ends:
                    row = (1 << bisect_left(at, e)) - row
            else:
                for s, f in enumerate(at):
                    if bisect_right(ends, f) & 1:
                        row |= 1 << s
        else:
            for s, i in enumerate(order):
                if points[i] in member:
                    row |= 1 << s
        rows.append(row)
    return order, rows


def from_sweep(den: int, ends: Sequence[int]) -> IntervalUnion:
    """The union of ends a sweep emits: den >= 1, ends strictly ascending in [0, den].

    The one reduction by gcd(den, *ends), which equality relies on. The
    ends are not checked, so only a sweep's own output and ends a family
    enumerates ascending in range may come here;
    ``from_ends`` checks other ends and then reduces them here.
    """
    g = gcd(den, *ends)
    if g > 1:
        den, ends = den // g, [e // g for e in ends]
    u = object.__new__(IntervalUnion)
    u.den, u.ends = den, tuple(ends)
    return u


EMPTY = IntervalUnion()
FULL = IntervalUnion.from_ends(1, (0, 1))


def _walk(den: int, steps: dict[int, int]) -> Iterator[tuple[int, int, int]]:
    """Segments (lo, hi, total) tiling [0, den) between the step keys.

    ``total`` is the sum of the steps at keys <= lo, so the segment before
    the first key has total 0.
    """
    lo = total = 0
    for x in sorted(steps):
        if x > lo:
            yield lo, x, total
        total += steps[x]
        lo = x
    if lo < den:
        yield lo, den, total


def segments(sets: Sequence[IntervalUnion]) -> tuple[int, Iterator[tuple[int, int, int]]]:
    """The one endpoint sweep: (den, segments) for the sets at a common den.

    ``den`` is the lcm of the sets' denominators. A step of +2**j at each lo
    of sets[j] and -2**j at each hi, summed in key order, gives each
    segment's membership mask, so the segments (lo, hi, mask) tile [0, 1)
    in units of 1/den and bit j of mask is set when [lo/den, hi/den) lies in
    sets[j]. Every key below den flips some bit, since a normalized union
    never has two ends at one point.
    """
    den = lcm(*(s.den for s in sets))
    steps: dict[int, int] = {}
    for j, s in enumerate(sets):
        scale, bit = den // s.den, 1 << j
        for e in s.ends[::2]:
            steps[e * scale] = steps.get(e * scale, 0) + bit
        for e in s.ends[1::2]:
            steps[e * scale] = steps.get(e * scale, 0) - bit
    return den, _walk(den, steps)


def _kept(den: int, segs, keep: Callable[[int], bool]) -> IntervalUnion:
    """The union of the segments whose total passes ``keep``, touching ones merged."""
    ends: list[int] = []
    for lo, hi, total in segs:
        if keep(total):
            if ends and ends[-1] == lo:
                ends[-1] = hi
            else:
                ends += (lo, hi)
    return from_sweep(den, ends)


def rescaled(sets: Sequence[IntervalUnion], den: int = 1) -> tuple[int, list[tuple[int, ...]]]:
    """The integer reader: (D, each set's ends over D), D the lcm of den and the sets' dens."""
    D = lcm(den, *(s.den for s in sets))
    return D, [tuple(e * (D // s.den) for e in s.ends) if s.den < D else s.ends for s in sets]


def from_pairs(den: int, pairs: Iterable[tuple[int, int]]) -> IntervalUnion:
    """Union of raw integer pairs [lo/den, hi/den), merged from their sorted lows and highs.

    Overlapping and touching pairs merge and pairs with lo == hi vanish; den below 1
    or a pair outside 0 <= lo <= hi <= den raises ValueError, at the first such pair.
    """
    if den < 1:
        raise ValueError(f"need den >= 1, got {den}")
    los, his = [], []
    for a, b in pairs:
        if not 0 <= a <= b <= den:
            raise ValueError(f"interval [{Fraction(a, den)}, {Fraction(b, den)}) needs 0 <= lo <= hi <= 1")
        if a < b:
            los.append(a)
            his.append(b)
    los.sort()
    his.sort()
    ends = los[:1]
    for i in compress(range(1, len(los)), map(lt, his, islice(los, 1, None))):
        ends += (his[i - 1], los[i])
    return from_sweep(den, ends + his[-1:])


def normalize(pairs: Iterable[tuple]) -> IntervalUnion:
    """Union of raw rational (lo, hi) pairs: ``from_pairs`` over their common denominator."""
    pairs = list(pairs)
    den = lcm(*{x.denominator for pair in pairs for x in pair})
    # Stream the rescaled pairs: a second list would hold every pair twice.
    scaled = ((a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)) for a, b in pairs)
    return from_pairs(den, scaled)


# -- text form --------------------------------------------------------------


_TERM = re.compile(r" *\[ *(\d+)(?:/(\d+))? *, *(\d+)(?:/(\d+))? *\) *")


def parse_union(text: str) -> IntervalUnion:
    """Parse the text form; the empty/blank string denotes the empty union.

    No term contains a ``u``, so the text splits on it into terms. A term
    that does not match raises ``ParseError`` at its offset, and a zero
    denominator at its own.
    """
    if not text.strip(" "):
        return EMPTY
    pairs = []
    at = 0
    for term in text.split("u"):
        match = _TERM.fullmatch(term)
        if match is None:
            raise ParseError("expected a term '[' rat ',' rat ')'", at)
        for g in (2, 4):
            if match[g] is not None and int(match[g]) == 0:
                raise ParseError("zero denominator", at + match.start(g))
        lo, hi = (Fraction(int(match[g]), int(match[g + 1] or 1)) for g in (1, 3))
        if lo >= hi:
            raise ValueError(f"empty interval [{lo},{hi}) in union text")
        pairs.append((lo, hi))
        at += len(term) + 1
    return normalize(pairs)


def iu(text: str) -> IntervalUnion:
    """Shorthand constructor from DSL text."""
    return parse_union(text)


# -- indexed families --------------------------------------------------------


class ScoringTable:
    """Members compiled for scoring at one precision: thresholds, index pairs, targets.

    ``thresholds`` lists each distinct threshold once, in first-seen order.
    ``members[i]`` is (pairs, num, den): member i holds the points n with
    thresholds[a] <= n < thresholds[b] for each (a, b) in ``pairs``, and is
    scored against the target num / den. The thresholds of members[:i] are
    thresholds[:seen[i]], since a member adds only the ones not seen before.
    Only ``scoring_table`` compiles a table.
    """

    __slots__ = ("thresholds", "members", "seen")

    def __init__(self, thresholds=(), members=(), seen=(0,)):
        self.thresholds, self.members, self.seen = list(thresholds), list(members), list(seen)

    def head(self, upto: int) -> "ScoringTable":
        """The first ``upto`` members with just the thresholds they use."""
        return ScoringTable(self.thresholds[: self.seen[upto]], self.members[:upto], self.seen[: upto + 1])


def scoring_table(scored: Iterable[tuple[object, Fraction]], precision: int, table=None) -> ScoringTable:
    """The compiler: ``table`` (a new one by default) grown by one entry per (member, target).

    A member's ``thresholds`` at the given precision go in as indices, its
    pairs read off consecutive thresholds, so a point lies in the member
    exactly when an odd number of its thresholds are <= it.
    """
    table = ScoringTable() if table is None else table
    thresholds, members, seen = table.thresholds, table.members, table.seen
    index = {t: a for a, t in enumerate(thresholds)}
    for member, target in scored:
        ids = []
        for t in member.thresholds(precision):
            a = index.get(t)
            if a is None:
                a = index[t] = len(thresholds)
                thresholds.append(t)
            ids.append(a)
        members.append((tuple(zip(ids[::2], ids[1::2])), target.numerator, target.denominator))
        seen.append(len(thresholds))
    return table


class SetFamily:
    """Deterministic indexed family of measurable subsets of [0, 1).

    ``member_fn`` must be a pure function of ``i``. Only the
    ``ScoringTable``s of ``rows`` are cached, one per precision, so they
    live as long as the family; a family may keep what its own enumeration
    needs. ``size`` is the number of members, or None for countable families
    that any finite budget may truncate.
    """

    def __init__(self, name: str, member_fn: Callable[[int], object], size: int | None):
        self.name = name
        self._member_fn = member_fn
        self.size = size
        self._tables: dict[int, ScoringTable] = {}

    @classmethod
    def of(cls, name: str, members) -> "SetFamily":
        """Finite family enumerating the given members in order."""
        members = tuple(members)
        return cls(name, members.__getitem__, len(members))

    def member(self, i: int):
        if i < 0 or (self.size is not None and i >= self.size):
            raise IndexError(f"member {i} out of range for family {self.name!r}")
        return self._member_fn(i)

    def members(self, upto: int) -> Iterator:
        """Members 0..upto-1; the budget is checked before this returns."""
        self.check_budget(upto)
        return map(self._member_fn, range(upto))

    def rows(self, upto: int, precision: int) -> ScoringTable:
        """The members compiled at the given precision, each scored against its measure.

        The table is kept per precision and grown to the largest budget
        asked, so it may hold more than ``upto`` members; ``head`` cuts it.
        """
        self.check_budget(upto)
        table = self._tables.setdefault(precision, ScoringTable())
        start = len(table.members)
        if upto > start:
            scored = ((c, c.measure) for c in map(self._member_fn, range(start, upto)))
            scoring_table(scored, precision, table)
        return table

    def check_budget(self, upto: int) -> None:
        if upto < 0:
            raise ValueError("budget must be nonnegative")
        if self.size is not None and upto > self.size:
            raise ValueError(
                f"budget {upto} exceeds family {self.name!r} size {self.size}"
            )

    def __repr__(self) -> str:
        return f"SetFamily({self.name!r}, size={self.size})"

