"""Multisegment model of the crystal B(infinity) in finite type A_n.

A segment [a,b] is an integer interval with 1 <= a <= b <= n and weight
-(alpha_a + ... + alpha_b).  A multisegment is a finite multiset of segments;
the empty multisegment is the highest-weight element, and a multisegment is
stored as the tuple of its multiplicities.

Both operator families act through signature words:

* plain operators along i look at segments [i,t] (minus) and [i+1,t] (plus),
  arranged largest first in the left order, which compares right endpoints
  first and breaks ties by larger left endpoint being smaller;
* starred operators along i look at segments [t,i] (plus) and [t,i-1]
  (minus), arranged largest first in the right order, which compares left
  endpoints first and breaks ties by larger right endpoint being smaller.

Each word is read off the multiplicities as one run per segment.  After
cancelling adjacent (+,-) pairs, lowering edits the surviving symbol closest
to the appropriate end or appends the length-one segment [i,i], and raising
edits the opposite end or annihilates.  Raising a length-one segment out of
existence deletes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .crystal import AbstractCrystal
from .parsing import ParseError, Scanner
from .rootdata import RootLattice, RootLatticeElem, check_rank
from .signature import expand, reduce_runs


@dataclass(frozen=True)
class Segment:
    """The interval [a,b] with 1 <= a <= b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError(f"segment endpoints must be integers, got [{self.a!r},{self.b!r}]")
        if not 1 <= self.a <= self.b:
            raise ValueError(f"invalid segment [{self.a},{self.b}]: need 1 <= a <= b")

    @property
    def height(self) -> int:
        return self.b - self.a + 1

    def __str__(self) -> str:
        return f"[{self.a}]" if self.a == self.b else f"[{self.a},{self.b}]"


def left_order_key(seg: Segment) -> tuple[int, int]:
    """Sorting ascending by this key realizes the left order."""
    return (seg.b, -seg.a)


def right_order_key(seg: Segment) -> tuple[int, int]:
    """Sorting ascending by this key realizes the right order."""
    return (seg.a, -seg.b)


def _index(a: int, b: int) -> int:
    """Position of [a,b] in a multiplicity tuple: by end, then by start."""
    return b * (b - 1) // 2 + a - 1


def _ends(j: int) -> tuple[int, int]:
    """Endpoints (a, b) of the segment at position j."""
    b = (isqrt(8 * j + 1) + 1) // 2
    return j - b * (b - 1) // 2 + 1, b


@dataclass(frozen=True, init=False)
class Multisegment:
    """Finite multiset of segments; ``segments`` lists them largest first in the left order.

    ``mults[_index(a, b)]`` counts the copies of [a,b], with trailing zeros
    trimmed, so equal multisets have equal tuples whatever the rank.
    """

    mults: tuple[int, ...]

    def __init__(self, segments=()):
        mults: list[int] = []
        for seg in segments:
            j = _index(seg.a, seg.b)
            mults.extend([0] * (j + 1 - len(mults)))
            mults[j] += 1
        object.__setattr__(self, "mults", tuple(mults))

    @staticmethod
    def from_iterable(segs) -> "Multisegment":
        return Multisegment(segs)

    def _moved(self, drop: int | None, put: int | None) -> "Multisegment":
        """One copy fewer at position drop and one more at put; None skips either."""
        mults = list(self.mults)
        if put is not None:
            mults.extend([0] * (put + 1 - len(mults)))
            mults[put] += 1
        if drop is not None:
            mults[drop] -= 1
            while mults and not mults[-1]:
                mults.pop()
        out = object.__new__(Multisegment)
        object.__setattr__(out, "mults", tuple(mults))
        return out

    def _present(self) -> list[tuple[int, int, int]]:
        """(a, b, multiplicity) of every segment present, by position."""
        out, a, b = [], 1, 1
        for mult in self.mults:
            if mult:
                out.append((a, b, mult))
            a, b = (a + 1, b) if a < b else (1, b + 1)
        return out

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(seg for seg, mult in self.counts() for _ in range(mult))

    def is_empty(self) -> bool:
        return not self.mults

    def height(self) -> int:
        return sum(mult * (b - a + 1) for a, b, mult in self._present())

    def counts(self) -> list[tuple[Segment, int]]:
        """(segment, multiplicity) pairs, largest segment first in the left order."""
        present = sorted(self._present(), key=lambda e: (-e[1], e[0]))
        return [(Segment(a, b), mult) for a, b, mult in present]

    def add(self, seg: Segment) -> "Multisegment":
        return self._moved(None, _index(seg.a, seg.b))

    def replace_one(self, old: Segment, new: Segment | None) -> "Multisegment":
        """Remove one copy of old and insert new unless new is None."""
        j = _index(old.a, old.b)
        if j >= len(self.mults) or not self.mults[j]:
            raise ValueError(f"segment {old} does not occur in {self}")
        return self._moved(j, None if new is None else _index(new.a, new.b))

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return sum(self.mults)

    def __str__(self) -> str:
        return format_multisegment(self)


EMPTY = Multisegment()


def left_runs(m: Multisegment, i: int) -> list[tuple[str, int, int]]:
    """Plain word along i by position: [i,t] (-), [i+1,t] (+) for t descending, then [i,i] (-)."""
    top = _ends(len(m.mults) - 1)[1] if m.mults else 0
    if top < i:
        return []
    mults = m.mults + (0,) * (i + 1)  # positions of block top past the stored end read 0
    runs = []
    for t in range(top, i, -1):
        j = t * (t - 1) // 2 + i - 1
        runs += (("-", mults[j], j), ("+", mults[j + 1], j + 1))
    j = i * (i + 1) // 2 - 1
    runs.append(("-", mults[j], j))
    return runs


def right_runs(m: Multisegment, i: int) -> list[tuple[str, int, int]]:
    """Starred word along i by position: [i,i] (+), then [t,i-1] (-), [t,i] (+) for t descending."""
    last = i * (i + 1) // 2 - 1
    if len(m.mults) <= (i - 1) * (i - 2) // 2:  # no segment ends at i - 1 or later
        return []
    mults = m.mults + (0,) * (last + 1 - len(m.mults))
    runs = [("+", mults[last], last)]
    for j in range(last - i, last - 2 * i + 1, -1):
        runs += (("-", mults[j], j), ("+", mults[j + i - 1], j + i - 1))
    return runs


def left_signature(m: Multisegment, i: int) -> list[tuple[str, Segment]]:
    """Signature word of the plain operators along i, largest segment first."""
    return [(sign, Segment(*_ends(j))) for sign, j in expand(left_runs(m, i))]


def right_signature(m: Multisegment, i: int) -> list[tuple[str, Segment]]:
    """Signature word of the starred operators along i, largest segment first; all plus for i = 1."""
    return [(sign, Segment(*_ends(j))) for sign, j in expand(right_runs(m, i))]


@lru_cache(maxsize=1 << 16)
def star(crystal: MultisegmentCrystal, m: Multisegment) -> Multisegment:
    """The star involution: star-lower the empty multisegment along m's raising path, reversed.

    Any index that admits a raise may be taken at each step.  The start of
    the last segment by position always admits one: its minus opens the word.
    """
    path = []
    while m.mults:
        i = _ends(len(m.mults) - 1)[0]
        path.append(i)
        m = crystal.raising(m, i)
    for i in reversed(path):
        m = crystal.star_lowering(m, i)
    return m


class MultisegmentCrystal(AbstractCrystal):
    """B(infinity) of type A_n realized on multisegments inside {1..n}."""

    def __init__(self, n: int):
        check_rank(n)
        self.n = n
        self.lattice = RootLattice(n)

    @property
    def highest(self) -> Multisegment:
        return EMPTY

    def validate(self, b) -> None:
        if not isinstance(b, Multisegment):
            raise ValueError(f"expected a multisegment, got {b!r}")
        if len(b.mults) > self.n * (self.n + 1) // 2:
            raise ValueError(f"segment {b.segments[0]} does not fit inside rank {self.n}")

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"operator index {i} out of range for rank {self.n}")

    def lowering(self, b: Multisegment, i: int) -> Multisegment:
        """Shift the leftmost surviving plus [i+1,t] to [i,t], or append [i,i]."""
        self._check_index(i)
        j = reduce_runs(left_runs(b, i))[3]
        return b._moved(None, _index(i, i)) if j is None else b._moved(j, j - 1)

    def raising(self, b: Multisegment, i: int) -> Multisegment | None:
        """Shift the rightmost surviving minus [i,t] to [i+1,t]; None if no minus."""
        self._check_index(i)
        j = reduce_runs(left_runs(b, i))[2]
        if j is None:
            return None
        return b._moved(j, None if j == _index(i, i) else j + 1)

    def star_lowering(self, b: Multisegment, i: int) -> Multisegment:
        """Grow the rightmost surviving minus [t,i-1] to [t,i], or append [i,i]."""
        self._check_index(i)
        j = reduce_runs(right_runs(b, i))[2]
        return b._moved(None, _index(i, i)) if j is None else b._moved(j, j + i - 1)

    def star_raising(self, b: Multisegment, i: int) -> Multisegment | None:
        """Trim the leftmost surviving plus [t,i] to [t,i-1]; None if no plus."""
        self._check_index(i)
        j = reduce_runs(right_runs(b, i))[3]
        if j is None:
            return None
        return b._moved(j, None if j == _index(i, i) else j - i + 1)

    def epsilon(self, b: Multisegment, i: int) -> int:
        """Number of surviving minus symbols; the raising string length along i."""
        self._check_index(i)
        return reduce_runs(left_runs(b, i))[0]

    def epsilon_star(self, b: Multisegment, i: int) -> int:
        """Number of surviving plus symbols of the starred signature along i."""
        self._check_index(i)
        return reduce_runs(right_runs(b, i))[1]

    def weight(self, b: Multisegment) -> RootLatticeElem:
        """Weight: minus the multiplicity with which each index is covered."""
        self.validate(b)
        coeffs = [0] * self.n
        for a, end, mult in b._present():
            for x in range(a - 1, end):
                coeffs[x] -= mult
        return RootLatticeElem(tuple(coeffs))

    def height(self, b: Multisegment) -> int:
        return b.height()

    def star(self, b: Multisegment) -> Multisegment:
        return star(self, b)


def format_multisegment(m: Multisegment) -> str:
    """Canonical text form, e.g. "2*[1,3],[2]"; the empty multisegment is "1"."""
    if m.is_empty():
        return "1"
    parts = []
    for seg, mult in m.counts():
        parts.append(f"{mult}*{seg}" if mult > 1 else str(seg))
    return ",".join(parts)


def parse_multisegment(text: str) -> Multisegment:
    """Parse the text form: comma-separated segments with optional "k*" prefixes."""
    if text.strip() in ("", "1"):
        return EMPTY
    sc = Scanner(text)
    segs: list[Segment] = []
    while True:
        count = 1
        if sc.peek().isdigit():
            at = sc.pos
            count = sc.take_int()
            if count < 1:
                raise ParseError(text, at, "multiplicity must be at least 1")
            sc.expect("*")
        at = sc.pos
        sc.expect("[")
        a = sc.take_int()
        b = a
        if sc.peek() == ",":
            sc.expect(",")
            b = sc.take_int()
        sc.expect("]")
        try:
            seg = Segment(a, b)
        except ValueError as exc:
            raise ParseError(text, at, str(exc)) from None
        segs.extend([seg] * count)
        if sc.eof():
            break
        sc.expect(",")
    return Multisegment.from_iterable(segs)
