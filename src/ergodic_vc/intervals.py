"""Exact set algebra for finite unions of half-open subintervals of [0, 1).

Endpoints are arbitrary-precision rationals (``fractions.Fraction``), so
measures, intersections and symmetric differences are computed without any
rounding. The half-open convention [lo, hi) makes refinements genuine
partitions: no point is counted twice, and single points carry measure zero.

A small text form is supported for configs and reports::

    union := term (' u ' term)*
    term  := '[' rat ',' rat ')'
    rat   := int ('/' int)?

``parse_union`` and ``str()`` round-trip on normalized unions (the empty
union prints and parses as the empty string).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ParseError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def ceil_fixed(x: Fraction, precision: int) -> int:
    """Least numerator n with n / 2**precision >= x (exact threshold)."""
    return -((-x.numerator << precision) // x.denominator)


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

    Instances are immutable and hashable; all boolean operations return new
    normalized unions and are safe to share across threads or processes.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Interval] = ()):
        parts = tuple(parts)
        for a, b in zip(parts, parts[1:]):
            if a.hi >= b.lo:
                raise ValueError(f"parts not normalized: {a} then {b}")
        object.__setattr__(self, "parts", parts)

    # -- basic queries ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def measure(self) -> Fraction:
        return sum((p.length for p in self.parts), ZERO)

    def __contains__(self, x) -> bool:
        i = bisect_right(self.parts, x, key=lambda p: p.lo)
        return i > 0 and x < self.parts[i - 1].hi

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalUnion) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return " u ".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"IntervalUnion({str(self)!r})"

    # -- boolean algebra ---------------------------------------------------

    def complement(self) -> "IntervalUnion":
        """Complement within the unit interval [0, 1)."""
        out = []
        prev = ZERO
        for p in self.parts:
            if prev < p.lo:
                out.append(Interval(prev, p.lo))
            prev = p.hi
        if prev < ONE:
            out.append(Interval(prev, ONE))
        return IntervalUnion(out)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        a, b = self.parts, other.parts
        if len(a) > len(b):
            a, b = b, a
        # Windowed scan keeps tiny-set x huge-set intersections cheap.
        out = []
        for p in a:
            i = bisect_right(b, p.lo, key=lambda q: q.lo)
            if i > 0:
                i -= 1
            while i < len(b) and b[i].lo < p.hi:
                lo = max(p.lo, b[i].lo)
                hi = min(p.hi, b[i].hi)
                if lo < hi:
                    out.append(Interval(lo, hi))
                i += 1
        out.sort(key=lambda q: q.lo)
        return IntervalUnion(out)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return normalize(
            [(p.lo, p.hi) for p in self.parts] + [(p.lo, p.hi) for p in other.parts]
        )

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other.complement())

    def symmetric_difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.difference(other).union(other.difference(self))

    __and__ = intersect
    __or__ = union
    __sub__ = difference
    __xor__ = symmetric_difference

    def __invert__(self) -> "IntervalUnion":
        return self.complement()

    # -- exact point counting ----------------------------------------------

    def count_fixed(self, sorted_fixed: Sequence[int], precision: int) -> int:
        """Count dyadic points n / 2**precision lying in the union.

        ``sorted_fixed`` must be ascending numerators at the given precision.
        Comparisons against rational endpoints are exact.
        """
        total = 0
        for p in self.parts:
            lo = ceil_fixed(p.lo, precision)
            hi = ceil_fixed(p.hi, precision)
            total += bisect_right(sorted_fixed, hi - 1) - bisect_right(sorted_fixed, lo - 1)
        return total


EMPTY = IntervalUnion()
FULL = IntervalUnion((Interval(ZERO, ONE),))


def normalize(pairs: Iterable[tuple]) -> IntervalUnion:
    """Sort raw (lo, hi) pairs, merge overlaps and touching parts.

    Degenerate pairs with lo == hi are dropped; lo > hi or endpoints outside
    [0, 1] raise ValueError.
    """
    cleaned = []
    for lo, hi in pairs:
        lo, hi = Fraction(lo), Fraction(hi)
        _check_endpoint(lo)
        _check_endpoint(hi)
        if lo > hi:
            raise ValueError(f"interval [{lo}, {hi}) has lo > hi")
        if lo < hi:
            cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[list[Fraction]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in merged))


# -- text form --------------------------------------------------------------


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] == " ":
        i += 1
    return i


def _parse_int(text: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(text) and text[i].isdigit():
        i += 1
    if i == start:
        raise ParseError("expected integer", start)
    return int(text[start:i]), i


def _parse_rat(text: str, i: int) -> tuple[Fraction, int]:
    num, i = _parse_int(text, i)
    if i < len(text) and text[i] == "/":
        den, i = _parse_int(text, i + 1)
        if den == 0:
            raise ParseError("zero denominator", i - 1)
        return Fraction(num, den), i
    return Fraction(num), i


def _parse_term(text: str, i: int) -> tuple[tuple[Fraction, Fraction], int]:
    if i >= len(text) or text[i] != "[":
        raise ParseError("expected '['", i)
    i = _skip_ws(text, i + 1)
    lo, i = _parse_rat(text, i)
    i = _skip_ws(text, i)
    if i >= len(text) or text[i] != ",":
        raise ParseError("expected ','", i)
    i = _skip_ws(text, i + 1)
    hi, i = _parse_rat(text, i)
    i = _skip_ws(text, i)
    if i >= len(text) or text[i] != ")":
        raise ParseError("expected ')'", i)
    if lo >= hi:
        raise ValueError(f"empty interval [{lo},{hi}) in union text")
    return (lo, hi), i + 1


def parse_union(text: str) -> IntervalUnion:
    """Parse the DSL form; the empty/blank string denotes the empty union."""
    i = _skip_ws(text, 0)
    if i == len(text):
        return EMPTY
    pairs = []
    term, i = _parse_term(text, i)
    pairs.append(term)
    while True:
        i = _skip_ws(text, i)
        if i == len(text):
            break
        if text[i] != "u":
            raise ParseError("expected 'u' or end of input", i)
        i = _skip_ws(text, i + 1)
        term, i = _parse_term(text, i)
        pairs.append(term)
    return normalize(pairs)


def iu(text: str) -> IntervalUnion:
    """Shorthand constructor from DSL text."""
    return parse_union(text)


# -- indexed families --------------------------------------------------------


class SetFamily:
    """Deterministic indexed family of measurable subsets of [0, 1).

    ``member(i)`` must be a pure function of ``i``; results are cached.
    ``size`` is the number of members, or None for countable families that
    any finite budget may truncate.
    """

    def __init__(self, name: str, member_fn: Callable[[int], object], size: int | None):
        self.name = name
        self._member_fn = member_fn
        self.size = size
        self._cache: dict[int, object] = {}

    @classmethod
    def of(cls, name: str, members) -> "SetFamily":
        """Finite family enumerating the given members in order."""
        members = tuple(members)
        return cls(name, members.__getitem__, len(members))

    def member(self, i: int):
        if i < 0 or (self.size is not None and i >= self.size):
            raise IndexError(f"member {i} out of range for family {self.name!r}")
        if i not in self._cache:
            self._cache[i] = self._member_fn(i)
        return self._cache[i]

    def members(self, upto: int):
        """Yield members 0..upto-1, validating the budget."""
        self.check_budget(upto)
        for i in range(upto):
            yield self.member(i)

    def check_budget(self, upto: int) -> None:
        if upto < 0:
            raise ValueError("budget must be nonnegative")
        if self.size is not None and upto > self.size:
            raise ValueError(
                f"budget {upto} exceeds family {self.name!r} size {self.size}"
            )

    def __repr__(self) -> str:
        return f"SetFamily({self.name!r}, size={self.size})"

