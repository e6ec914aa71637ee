"""The extended crystal built on top of any B(infinity) realization.

An element assigns a B(infinity) element to every integer slot, all but
finitely many being highest; it is the tuple of its non-highest (slot,
element) pairs in descending slot order, so it compares and hashes as a
plain tuple.  The operator along (i, k) couples slot k with the starred
structure of slot k+1: the branch selector epsilon(b_k, i) -
epsilon*(b_{k+1}, i) decides whether lowering acts by plain lowering on slot
k or by starred raising on slot k+1, and raising takes the opposite
branches.  The starred operators are the plain ones one slot down,
f*_{i,k} = e_{i,k-1} and e*_{i,k} = f_{i,k-1}, and are written as such.

Every operator is one step along (i, k) in a direction d, 1 for lowering
and -1 for raising.  One pass finds slots k+1 and k; each non-highest one
is reduced once, slot k+1 by the realization's starred ``read`` and slot k
by its plain one.  Slot k moves in direction d when epsilon - epsilon* +
(d > 0) > 0, else slot k+1 moves in direction -d, through its read.  A
highest slot (counters 0) is lowered by the realization's own operator
unread.  Only the moved slot's entry is rewritten, in one slice-and-concat.
``ExtElement`` sorts outside input instead, and refuses a slot index that is
not an int, as the operators refuse such a k and ``shift`` such a t.

Slot weights alternate in sign with the slot index, so lowering along (i, k)
moves the total weight by (-1)^(k+1) alpha_i.
"""

from __future__ import annotations

from .crystal import AbstractCrystal
from .parsing import INT, ParseError
from .rootdata import RootLatticeElem


def _slot_index(k: int) -> int:
    """k, refused with a ValueError unless it is an int (a bool is not)."""
    if type(k) is not int:
        raise ValueError(f"slot index must be an integer, got {k!r}")
    return k


class ExtElement(tuple):
    """Finitely supported slot assignment: the tuple of its (slot, element) pairs.

    Slots are integers kept in decreasing order and never hold a highest
    element: the constructor drops the entries it is given for highest ones.
    """

    __slots__ = ()

    def __new__(cls, slots=()) -> "ExtElement":
        canon = sorted(slots, key=lambda kv: -_slot_index(kv[0]))
        if len({k for k, _ in canon}) != len(canon):
            raise ValueError(f"duplicate slot index in {[k for k, _ in canon]}")
        # the highest element is the only falsy one (see AbstractCrystal)
        return tuple.__new__(cls, [kv for kv in canon if kv[1]])

    @property
    def slots(self) -> tuple[tuple[int, object], ...]:
        return self[:]

    def __repr__(self) -> str:
        return f"ExtElement(slots={self[:]!r})"

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self)

    def slot(self, k: int, default=None):
        for kk, b in self:
            if kk == k:
                return b
        return default

    def is_highest(self) -> bool:
        return not self


HIGHEST = ExtElement()


def _from_slots(slots: tuple) -> ExtElement:
    """The element over slots that already descend, with no highest entry; nothing is checked."""
    return tuple.__new__(ExtElement, slots)


# what _step takes for a highest slot's read instead of reading it: counter 0
_UNREAD = (0,)
# why a raise that _step chose cannot fail, for slot k and for slot k+1
_RAISE_FAILED = ("positive branch selector guarantees a raise", "negative branch selector guarantees a starred raise")


class ExtendedCrystal:
    """Extended-crystal operators over an arbitrary B(infinity) realization."""

    def __init__(self, crystal: AbstractCrystal):
        self.crystal = crystal

    @property
    def n(self) -> int:
        return self.crystal.n

    @property
    def lattice(self):
        return self.crystal.lattice

    def element(self, mapping: dict) -> ExtElement:
        """Build an element from a slot -> B(infinity) dict, dropping highest slots."""
        for b in mapping.values():
            self.crystal.validate(b)
        return ExtElement(tuple(mapping.items()))

    def inject(self, b, k: int = 0) -> ExtElement:
        """Place a single B(infinity) element into slot k."""
        return self.element({k: b})

    def slot(self, c: ExtElement, k: int):
        return c.slot(k, self.crystal.highest)

    def epsilon(self, c: ExtElement, i: int, k: int) -> int:
        return self.crystal.epsilon(self.slot(c, k), i)

    def epsilon_star(self, c: ExtElement, i: int, k: int) -> int:
        return self.crystal.epsilon_star(self.slot(c, k), i)

    def branch_selector(self, c: ExtElement, i: int, k: int) -> int:
        """epsilon at slot k minus starred epsilon at slot k+1."""
        return self.epsilon(c, i, k) - self.epsilon_star(c, i, k + 1)

    def star_branch_selector(self, c: ExtElement, i: int, k: int) -> int:
        """Starred epsilon at slot k minus epsilon at slot k-1."""
        return self.epsilon_star(c, i, k) - self.epsilon(c, i, k - 1)

    def _step(self, c: ExtElement, i: int, k: int, d: int) -> ExtElement:
        """c after the operator along (i, k): lowering for d = 1, raising for d = -1; see the module docstring."""
        if type(k) is not int:  # _slot_index's check, inline on the hot path
            _slot_index(k)
        cry = self.crystal
        at, end = 0, len(c)
        while at < end and c[at][0] > k + 1:
            at += 1
        # c[at:mid] holds slot k+1's entry and c[mid:stop] slot k's
        mid = at + (at < end and c[at][0] == k + 1)
        stop = mid + (mid < end and c[mid][0] == k)
        star = cry.read(c[at][1], i, True) if mid > at else _UNREAD
        plain = cry.read(c[mid][1], i, False) if stop > mid else _UNREAD
        up = plain[0] - star[0] + (d > 0) <= 0  # slot k+1 moves, in direction -d
        if up:
            lo, hi, read, d = at, mid, star, -d
        else:
            lo, hi, read = mid, stop, plain
        if lo == hi:  # a highest slot, which only a lowering moves
            b = (cry.star_lowering if up else cry.lowering)(cry.highest, i)
        elif d > 0:
            b = cry.lower_with(c[lo][1], read)
        else:
            b = cry.raise_with(c[lo][1], read)
            assert b is not None, _RAISE_FAILED[up]
        return _from_slots(c[:lo] + (((k + up, b),) if b else ()) + c[hi:])

    def lowering(self, c: ExtElement, i: int, k: int) -> ExtElement:
        return self._step(c, i, k, 1)

    def raising(self, c: ExtElement, i: int, k: int) -> ExtElement:
        return self._step(c, i, k, -1)

    def star_lowering(self, c: ExtElement, i: int, k: int) -> ExtElement:
        return self.raising(c, i, _slot_index(k) - 1)

    def star_raising(self, c: ExtElement, i: int, k: int) -> ExtElement:
        return self.lowering(c, i, _slot_index(k) - 1)

    def weight(self, c: ExtElement) -> RootLatticeElem:
        total = self.lattice.zero()
        for k, b in c:
            w = self.crystal.weight(b)
            total = total - w if k % 2 else total + w
        return total

    def total_height(self, c: ExtElement) -> int:
        return sum(self.crystal.height(b) for _, b in c)

    def star_flip(self, c: ExtElement) -> ExtElement:
        """Mirror the slots through zero and star each entry; an involution.

        Mirroring reverses the descending slot order, and star keeps every
        entry non-highest, as it keeps the weight.
        """
        return _from_slots(tuple((-k, self.crystal.star(b)) for k, b in reversed(c)))

    def shift(self, c: ExtElement, t: int) -> ExtElement:
        """Move every slot up by t, which keeps their order."""
        t = _slot_index(t)
        return _from_slots(tuple((k + t, b) for k, b in c))

    def path_to_highest(self, c: ExtElement) -> list[tuple[int, int]]:
        """A raising word (i, k) pairs that drives c to the highest element.

        Greedy: always raise in the largest supported slot, along the
        smallest index that admits a raise there.  Each step lowers the total
        height by one, so the word length equals the total height; a longer
        walk raises AssertionError.
        """
        path: list[tuple[int, int]] = []
        steps = self.total_height(c)
        while not c.is_highest():
            if len(path) == steps:
                raise AssertionError(f"{c} is not highest after {steps} raises")
            l = c[0][0]
            b = self.slot(c, l)
            for i in self.crystal.indices():
                if self.crystal.epsilon(b, i) > 0:
                    path.append((i, l))
                    c = self.raising(c, i, l)
                    break
            else:
                raise AssertionError(f"no raise applies in slot {l} of {c}")
        return path


def format_ext_element(c: ExtElement) -> str:
    """Canonical text form "k:slot;k:slot" by decreasing slot; highest is "1"."""
    if c.is_highest():
        return "1"
    return ";".join(f"{k}:{b}" for k, b in c)


def parse_ext_element(text: str, ext: ExtendedCrystal) -> ExtElement:
    """Parse the "k:slot;k:slot" text form; "" and "1" denote the highest element.

    Each slot goes through the crystal's own parser, which skips whitespace
    itself, so its parse errors keep their place in the text, and which
    refuses a segment past the rank before building anything.  A slot it
    refuses with a ValueError that is not a ParseError is reported once every
    chunk has parsed, at position 0, as an invalid slot is.
    """
    if text.strip() in ("", "1"):
        return HIGHEST
    mapping: dict[int, object] = {}
    refused = None
    offset = 0
    for chunk in text.split(";"):
        head, sep, payload = chunk.partition(":")
        if not sep:
            raise ParseError(text, offset, "expected 'slot:value'")
        slot = head.strip()
        try:
            if not INT.fullmatch(slot):
                raise ValueError
            k = int(slot)  # refuses more digits than the interpreter converts
        except ValueError:
            raise ParseError(text, offset, f"invalid slot index {slot!r}") from None
        if k in mapping:
            raise ParseError(text, offset, f"duplicate slot {k}")
        try:
            mapping[k] = ext.crystal.parse(payload)
        except ParseError as exc:
            raise ParseError(text, offset + len(head) + 1 + exc.pos, exc.message) from None
        except ValueError as exc:
            mapping[k] = None
            if refused is None:
                refused = str(exc)
        offset += len(chunk) + 1
    if refused is not None:
        raise ParseError(text, 0, refused)
    try:
        return ext.element(mapping)
    except ValueError as exc:
        raise ParseError(text, 0, str(exc)) from None
