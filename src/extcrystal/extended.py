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

Each operator makes one pass over the slots to find its two slots and the
range of the slot tuple they occupy.  It reads the upper slot with the
realization's starred ``read`` and the lower one with its plain ``read``:
each read is one reduction whose entry 0 is the counter, and the chosen
branch hands that read to ``lower_with`` or ``raise_with``, so no slot is
reduced twice.  A highest slot is not read, since its counters are 0 in
every B(infinity); a branch that acts on it lowers the highest element
through the realization's own operator.
The branch rewrites one of the two slots: its new entry takes the old one's
place in the descending slot tuple, or enters it, in one slice-and-concat
without re-sorting, and a raise that leaves the slot highest drops its entry.
An ``ExtElement`` built from outside input is sorted instead, and its slot
indices are checked to be distinct integers.

Slot weights alternate in sign with the slot index, so lowering along (i, k)
moves the total weight by (-1)^(k+1) alpha_i.
"""

from __future__ import annotations

from .crystal import AbstractCrystal
from .parsing import INT, ParseError
from .rootdata import RootLatticeElem


class ExtElement(tuple):
    """Finitely supported slot assignment: the tuple of its (slot, element) pairs.

    Slots are integers kept in decreasing order and never hold a highest
    element: the constructor drops the entries it is given for highest ones.
    """

    __slots__ = ()

    def __new__(cls, slots=()) -> "ExtElement":
        canon = list(slots)
        for k, _ in canon:
            if type(k) is not int:
                raise ValueError(f"slot index must be an integer, got {k!r}")
        canon.sort(key=lambda kv: -kv[0])
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


# what _reads gives for a highest slot instead of reading it: counter 0
_UNREAD = (0,)


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

    def _reads(self, c: ExtElement, i: int, top: int):
        """One pass over c for the operators along (i, top - 1), on slots top and top - 1.

        Returns (at, stop, hi, lo, star, plain): c[at:stop] holds those
        two slots, hi and lo are their (slot, element) entries (None where
        highest), star is the starred read of hi's element and plain the
        plain read of lo's.  A highest slot is not read: its counters are 0
        in every B(infinity), and its read is _UNREAD.
        """
        at, end = 0, len(c)
        while at < end and c[at][0] > top:
            at += 1
        stop, hi, lo, star, plain = at, None, None, _UNREAD, _UNREAD
        if stop < end and c[stop][0] == top:
            hi = c[stop]
            star = self.crystal.read(hi[1], i, True)
            stop += 1
        if stop < end and c[stop][0] == top - 1:
            lo = c[stop]
            plain = self.crystal.read(lo[1], i, False)
            stop += 1
        return at, stop, hi, lo, star, plain

    def lowering(self, c: ExtElement, i: int, k: int) -> ExtElement:
        cry = self.crystal
        at, stop, above, here, above_read, here_read = self._reads(c, i, k + 1)
        if here_read[0] >= above_read[0]:
            b = cry.lowering(cry.highest, i) if here is None else cry.lower_with(here[1], here_read)
            return _from_slots(c[: stop - 1 if here else stop] + ((k, b),) + c[stop:])
        raised = cry.raise_with(above[1], above_read)
        assert raised is not None, "negative branch selector guarantees a starred raise"
        return _from_slots(c[:at] + (((k + 1, raised),) if raised else ()) + c[at + 1 :])

    def raising(self, c: ExtElement, i: int, k: int) -> ExtElement:
        cry = self.crystal
        at, stop, above, here, above_read, here_read = self._reads(c, i, k + 1)
        if here_read[0] > above_read[0]:
            raised = cry.raise_with(here[1], here_read)
            assert raised is not None, "positive branch selector guarantees a raise"
            return _from_slots(c[: stop - 1] + (((k, raised),) if raised else ()) + c[stop:])
        b = cry.star_lowering(cry.highest, i) if above is None else cry.lower_with(above[1], above_read)
        return _from_slots(c[:at] + ((k + 1, b),) + c[at + 1 if above else at :])

    def star_lowering(self, c: ExtElement, i: int, k: int) -> ExtElement:
        return self.raising(c, i, k - 1)

    def star_raising(self, c: ExtElement, i: int, k: int) -> ExtElement:
        return self.lowering(c, i, k - 1)

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
