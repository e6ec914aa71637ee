"""Multisegment model of the crystal B(infinity) in finite type A_n.

A segment [a,b] is an integer interval with 1 <= a <= b <= n and weight
-(alpha_a + ... + alpha_b); it is the tuple (a, b).  A multisegment is a
finite multiset of segments; the empty multisegment is the highest-weight
element, and a multisegment is the tuple of its multiplicities, one per
segment in a fixed order, so it compares and hashes as a plain tuple.

Both operator families act through signature words:

* plain operators along i look at segments [i,t] (minus) and [i+1,t] (plus),
  arranged largest first in the left order, which compares right endpoints
  first and breaks ties by larger left endpoint being smaller;
* starred operators along i look at segments [t,i] (plus) and [t,i-1]
  (minus), arranged largest first in the right order, which compares left
  endpoints first and breaks ties by larger right endpoint being smaller.

Both words alternate between minus and plus, one multiplicity per segment, so
each is read off the multiplicities as alternating counts (see ``signature``).
The starred word is read right to left, which swaps minus and plus and keeps
which symbols cancel, so both words open with a minus and end with [i,i] as a
minus.  A crystal of rank n fixes, once per index, the positions each word
reads and one getter over them, which reads the stored tuple itself unless
the tuple ends at or before the word's highest position.  After cancelling
adjacent (+,-) pairs, lowering moves the leftmost surviving plus or adds the
length-one segment [i,i], and raising moves the rightmost surviving minus or
annihilates; raising [i,i] out of existence deletes it.  A write copies the
multiplicities once and trims them only when the top position empties.

The star involution is one sweep of tropical braid 3-moves on the
multiplicities (Lusztig; Berenstein-Fomin-Zelevinsky): it reads all C(n+1, 3)
moves but writes only those that change something (see
``MultisegmentCrystal.star``).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import isqrt
from operator import itemgetter

from .crystal import AbstractCrystal
from .parsing import INT, counted_term, counted_terms, refusal
from .rootdata import MAX_RANK, RootLattice, RootLatticeElem, check_rank
from .signature import reduce_runs


class Segment(tuple):
    """The interval [a,b] with 1 <= a <= b: the tuple (a, b)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Segment":
        if not (type(a) is int and type(b) is int):
            raise ValueError(f"segment endpoints must be integers, got [{a!r},{b!r}]")
        if not 1 <= a <= b:
            raise ValueError(f"invalid segment [{a},{b}]: need 1 <= a <= b")
        return tuple.__new__(cls, (a, b))

    a = property(itemgetter(0))
    b = property(itemgetter(1))

    @property
    def height(self) -> int:
        return self[1] - self[0] + 1

    def __getnewargs__(self) -> tuple[int, int]:
        return self[:]

    def __str__(self) -> str:
        return _segment_text(*self)

    def __repr__(self) -> str:
        return f"Segment(a={self[0]}, b={self[1]})"


def _segment_text(a: int, b: int) -> str:
    return f"[{a}]" if a == b else f"[{a},{b}]"


def _index(a: int, b: int) -> int:
    """Position of [a,b] in a multiplicity tuple: by end, then by start."""
    return b * (b - 1) // 2 + a - 1


def _ends(j: int) -> tuple[int, int]:
    """Endpoints (a, b) of the segment at position j."""
    b = (isqrt(8 * j + 1) + 1) // 2
    return j - b * (b - 1) // 2 + 1, b


class Multisegment(tuple):
    """Finite multiset of segments: the tuple of its multiplicities.

    ``m[_index(a, b)]`` counts the copies of [a,b], with trailing zeros
    trimmed, so equal multisets are equal tuples whatever the rank.  It is not
    iterable, so pytest never walks two of them to report a failing ``==``;
    code reads it by index, and ``mults`` is a plain copy.
    """

    __slots__ = ()
    __iter__ = None

    def __new__(cls, segments=()) -> "Multisegment":
        return Multisegment.from_counts((seg, 1) for seg in segments)

    @staticmethod
    def from_counts(pairs) -> "Multisegment":
        """The multisegment holding each (segment, multiplicity) pair; repeated segments add up."""
        mults: list[int] = []
        for seg, mult in pairs:
            j = _index(seg.a, seg.b)
            mults.extend([0] * (j + 1 - len(mults)))
            mults[j] += mult
        return _of(mults)

    @property
    def mults(self) -> tuple[int, ...]:
        return self[:]

    def __reduce__(self):
        # pickle rebuilds the tuple unchecked: __new__ takes segments
        return tuple.__new__, (Multisegment, self[:])

    def __repr__(self) -> str:
        return f"Multisegment(mults={self[:]!r})"

    def entries(self) -> list[tuple[int, int, int]]:
        """(a, b, multiplicity) of every segment present, largest first in the left order.

        The left order walks the ends downwards and, within one end, the
        starts upwards, which is the storage order block by block.
        """
        mults, out = self[:], []
        hi = len(mults)
        b = _ends(hi - 1)[1] if mults else 0
        while b:
            lo = b * (b - 1) // 2
            for j in range(lo, hi):
                if mults[j]:
                    out.append((j - lo + 1, b, mults[j]))
            hi, b = lo, b - 1
        return out

    def is_empty(self) -> bool:
        return not self

    def height(self) -> int:
        return sum(mult * (b - a + 1) for a, b, mult in self.entries())

    def __str__(self) -> str:
        return format_multisegment(self)


def _of(mults: list[int]) -> Multisegment:
    """The multisegment with these multiplicities; trims the list's trailing zeros in place."""
    while mults and not mults[-1]:
        mults.pop()
    return tuple.__new__(Multisegment, mults)


EMPTY = Multisegment()


def _plain_positions(n: int, i: int) -> tuple[int, ...]:
    """Positions the plain word along i reads at rank n, in scan order, opening with a minus.

    [i,t] (-), [i+1,t] (+) for t from n down to i+1, then [i,i] (-).
    """
    out = []
    for t in range(n, i, -1):
        out += (_index(i, t), _index(i + 1, t))
    return (*out, _index(i, i))


def _starred_positions(i: int) -> tuple[int, ...]:
    """Positions the starred word along i reads, right to left, so it opens with a minus.

    The starred word ends with [1,i] (+), so read backwards it is [t,i] (-),
    [t,i-1] (+) for t from 1 up to i-1, then [i,i] (-).  Reading a word
    backwards swaps minus and plus and keeps which symbols cancel.
    """
    out = []
    for t in range(1, i):
        out += (_index(t, i), _index(t, i - 1))
    return (*out, _index(i, i))


def _word(positions: tuple[int, ...], step: int) -> tuple:
    """A word's entry: its getter, its lowest position, one past its highest, its positions and step.

    A surviving minus at position j raises to j + step and a surviving plus
    lowers to j - step; a one-count word's getter is a slice, so it reads a
    tuple too.
    """
    j = positions[-1]
    getter = itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(j, j + 1))
    return getter, min(positions), max(positions) + 1, positions, step


class MultisegmentCrystal(AbstractCrystal):
    """B(infinity) of type A_n realized on multisegments inside {1..n}.

    Per index i it keeps the plain and the starred word at rank n: an
    ``itemgetter`` over the word's positions, which reads the stored tuple
    itself and pads it only when it ends at or before the word's highest
    position.
    """

    def __init__(self, n: int):
        check_rank(n)
        self.n = n
        self.lattice = RootLattice(n)
        self._size = n * (n + 1) // 2
        self._zeros = (0,) * self._size
        # star's 3-moves on the positions of [i,j-1], [i,l-1], [j,l-1].  They do not
        # commute: lexicographic order is admissible (Manin-Schechtman), a path of
        # braid moves between reduced words of w0.  Its reverse gives the same map,
        # as each move and star are involutions; an order like (-i, j, l) does not.
        self._moves = tuple(
            (_index(i, j - 1), _index(i, l - 1), _index(j, l - 1)) for i, j, l in combinations(range(1, n + 2), 3)
        )
        self._plain = {i: _word(_plain_positions(n, i), 1) for i in self.indices()}
        self._starred = {i: _word(_starred_positions(i), 1 - i) for i in self.indices()}
        self._words = (self._plain, self._starred)

    @property
    def highest(self) -> Multisegment:
        return EMPTY

    def validate(self, b) -> None:
        if not isinstance(b, Multisegment):
            raise ValueError(f"expected a multisegment, got {b!r}")
        self._check_top(len(b) - 1)

    def _check_top(self, j: int) -> None:
        """Refuse a multisegment whose top segment sits at position j, past rank n."""
        if j >= self._size:
            raise _past_rank(*_ends(j), self.n)

    def parse(self, text: str) -> Multisegment:
        """parse_multisegment, but a segment past rank n is validate's ValueError, once the text has parsed."""
        return _parse(text, self.n, _segment)

    def read(self, b: Multisegment, i: int, starred: bool) -> tuple:
        """The reduction of b's plain or starred word along i, then the word's entry.

        Entry 0 counts the surviving minus symbols: epsilon, the raising
        string length along i, or, as the starred word is read right to left,
        epsilon*, the surviving plus symbols of the starred signature.
        """
        try:
            word = self._words[starred][i]
        except KeyError:
            raise ValueError(f"operator index {i} out of range for rank {self.n}") from None
        getter, low, end, _, _ = word
        size = len(b)
        if size >= end:
            if size > self._size:
                self.validate(b)
            return reduce_runs(getter(b)) + (word,)
        if size <= low:  # every position the word reads lies past the stored end
            return 0, 0, None, None, word
        return reduce_runs(getter(b + self._zeros[size:end])) + (word,)

    def count_words(self, b: Multisegment, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """b's plain and starred words along i as alternating counts, in scan order.

        The plain word closes with an empty plus and the starred one, read
        left to right, opens with an empty minus.
        """
        try:
            plain, starred = self._plain[i][0], self._starred[i][0]
        except KeyError:
            raise ValueError(f"operator index {i} out of range for rank {self.n}") from None
        self.validate(b)
        padded = b + self._zeros[len(b) :]
        return (*plain(padded), 0), (0, *starred(padded)[::-1])

    def lower_with(self, b: Multisegment, read: tuple) -> Multisegment:
        """Move the leftmost surviving plus down the word, or add [i,i].

        Plain: [i+1,t] to [i,t]; starred: [t,i-1] to [t,i].
        """
        _, _, _, at, (_, _, _, positions, step) = read
        mults = [*b[:]]
        if at is None:
            k = positions[-1]
        else:
            k = positions[at]
            mults[k] -= 1
            k -= step
        if k >= len(mults):
            mults += self._zeros[len(mults) : k + 1]
        mults[k] += 1
        return tuple.__new__(Multisegment, mults) if mults[-1] else _of(mults)

    def raise_with(self, b: Multisegment, read: tuple) -> Multisegment | None:
        """Move the rightmost surviving minus up the word, deleting [i,i]; None if no minus.

        Plain: [i,t] to [i+1,t]; starred: [t,i] to [t,i-1].
        """
        _, _, at, _, (_, _, _, positions, step) = read
        if at is None:
            return None
        j = positions[at]
        mults = [*b[:]]
        mults[j] -= 1
        if j != positions[-1]:
            j += step
            if j >= len(mults):
                mults += self._zeros[len(mults) : j + 1]
            mults[j] += 1
        return tuple.__new__(Multisegment, mults) if mults[-1] else _of(mults)

    def weight(self, b: Multisegment) -> RootLatticeElem:
        """Weight: minus the multiplicity with which each index is covered."""
        self.validate(b)
        coeffs = [0] * self.n
        for a, end, mult in b.entries():
            for x in range(a - 1, end):
                coeffs[x] -= mult
        return RootLatticeElem(tuple(coeffs))

    def height(self, b: Multisegment) -> int:
        return b.height()

    def star(self, m: Multisegment) -> Multisegment:
        """The star involution: Lusztig's 3-move, read tropically, once per triple.

        x_ij, the multiplicity of [i,j-1], is the Lusztig datum of the root e_i - e_j.
        Each triple i < j < l of 1..n+1 sets, with p = min(x_ij, x_jl), (x_ij, x_il,
        x_jl) to (x_ij + x_il - p, p, x_jl + x_il - p): a transition map between reduced
        words of w0 (Lusztig, JAMS 3 (1990); Berenstein-Fomin-Zelevinsky, Adv. Math. 122 (1996)).

        The sweep reads all C(n+1, 3) moves but writes only those that change
        something.  A move is the identity exactly when x_il = min(x_ij, x_jl),
        so with x_il = 0 it writes only when x_ij and x_jl are both non-zero.
        """
        self.validate(m)
        x = list(m + self._zeros[len(m) :])
        for ij, il, jl in self._moves:
            b = x[il]
            if b:
                a, c = x[ij], x[jl]
                p = a if a < c else c
                x[ij], x[il], x[jl] = a + b - p, p, c + b - p
            else:
                a = x[ij]
                if a:
                    c = x[jl]
                    if c:
                        p = a if a < c else c
                        x[ij], x[il], x[jl] = a - p, p, c - p
        return _of(x)


def format_multisegment(m: Multisegment) -> str:
    """Canonical text form, e.g. "2*[1,3],[2]"; the empty multisegment is "1"."""
    if m.is_empty():
        return "1"
    return ",".join(
        f"{mult}*{_segment_text(a, b)}" if mult > 1 else _segment_text(a, b) for a, b, mult in m.entries()
    )


def parse_multisegment(text: str) -> Multisegment:
    """Parse the text form: comma-separated segments with optional "k*" prefixes.

    No crystal holds a segment past MAX_RANK, so one is a ParseError at the
    segment, before any multiplicity is allocated by its position.
    """
    return _parse(text, MAX_RANK, _fitting_segment)


_SEGMENT_TERM = counted_term("[", INT, (",", INT), "]")  # groups: count, '*', item start, '[', a, b, ']', end


def _parse(text: str, top: int, item) -> Multisegment:
    """The multisegment of text, with item the segment rule that names a refusal.

    The multiplicities are allocated once, sized by the largest position, so
    "[1,100000]" costs no list of 5e9.  Past rank top, the refusal is item's
    at the first such segment, or else the ValueError about the largest.
    """
    found, size = [], 0
    try:
        for m in counted_terms(text, ("", "1"), _SEGMENT_TERM):
            count, _, _, _, a, b, _, end = m.groups()
            a = int(a)
            b = int(b) if b is not None else a
            count = int(count) if count else 1
            if end is None or not (1 <= a <= b and count >= 1):
                raise ValueError
            j = b * (b - 1) // 2 + a - 1
            found.append((j, count))
            if j >= size:
                size = j + 1
    except ValueError:  # a missing token, more digits than int() converts, or a rule broken
        raise refusal(text, _SEGMENT_TERM, item, "multiplicity") from None
    if size > top * (top + 1) // 2:
        raise refusal(text, _SEGMENT_TERM, item, "multiplicity") or _past_rank(*_ends(size - 1), top)
    mults = [0] * size
    for j, count in found:
        mults[j] += count
    # the top position holds a count of at least 1: nothing to trim
    return tuple.__new__(Multisegment, mults)


def _segment(a: int, b: int | None = None, top: int | None = None) -> Segment:
    """The segment of the item "[a]" or "[a,b]", refused past rank top if one is given."""
    seg = Segment(a, a if b is None else b)
    if top is not None and seg.b > top:
        raise _past_rank(*seg, top)
    return seg


_fitting_segment = partial(_segment, top=MAX_RANK)


def _past_rank(a: int, b: int, n: int) -> ValueError:
    return ValueError(f"segment {_segment_text(a, b)} does not fit inside rank {n}")
