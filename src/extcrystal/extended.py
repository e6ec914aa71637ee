"""The extended crystal built on top of any B(infinity) realization.

An element assigns a B(infinity) element to every integer slot, all but
finitely many being highest; only the non-highest slots are stored.  The
operator along (i, k) couples slot k with the starred structure of slot k+1:
the branch selector epsilon(b_k, i) - epsilon*(b_{k+1}, i) decides whether
lowering acts by plain lowering on slot k or by starred raising on slot k+1,
and raising takes the opposite branches.  The starred operator family couples
slot k with slot k-1 instead and is driven by the selector
epsilon*(b_k, i) - epsilon(b_{k-1}, i).

Each operator reads its two slots once and compares their counters directly;
its result is spliced into the descending slot tuple without re-sorting.  An
``ExtElement`` built from outside input is sorted and checked for duplicate
slots instead.

Slot weights alternate in sign with the slot index, so lowering along (i, k)
moves the total weight by (-1)^(k+1) alpha_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystal import AbstractCrystal
from .msegment import format_multisegment
from .parsing import ParseError
from .rootdata import RootLatticeElem


@dataclass(frozen=True)
class ExtElement:
    """Finitely supported slot assignment, stored as (slot, element) pairs.

    Slots are kept in decreasing order and never hold a highest element.
    """

    slots: tuple[tuple[int, object], ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.slots, key=lambda kv: -kv[0]))
        ks = [k for k, _ in canon]
        if len(set(ks)) != len(ks):
            raise ValueError(f"duplicate slot index in {ks}")
        object.__setattr__(self, "slots", canon)

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.slots)

    def slot(self, k: int, default=None):
        for kk, b in self.slots:
            if kk == k:
                return b
        return default

    def is_highest(self) -> bool:
        return not self.slots


HIGHEST = ExtElement()


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
        slots = []
        for k, b in mapping.items():
            if not isinstance(k, int):
                raise ValueError(f"slot index must be an integer, got {k!r}")
            self.crystal.validate(b)
            if b != self.crystal.highest:
                slots.append((k, b))
        return ExtElement(tuple(slots))

    def inject(self, b, k: int = 0) -> ExtElement:
        """Place a single B(infinity) element into slot k."""
        return self.element({k: b})

    def slot(self, c: ExtElement, k: int):
        return c.slot(k, self.crystal.highest)

    def _set_slot(self, c: ExtElement, k: int, b) -> ExtElement:
        """c with slot k holding b, spliced into the descending slots without re-sorting."""
        slots = c.slots
        at = 0
        while at < len(slots) and slots[at][0] > k:
            at += 1
        rest = at + 1 if at < len(slots) and slots[at][0] == k else at
        out = object.__new__(ExtElement)
        mid = () if b == self.crystal.highest else ((k, b),)
        object.__setattr__(out, "slots", slots[:at] + mid + slots[rest:])
        return out

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

    def lowering(self, c: ExtElement, i: int, k: int) -> ExtElement:
        cry = self.crystal
        b, above = self.slot(c, k), self.slot(c, k + 1)
        if cry.epsilon(b, i) >= cry.epsilon_star(above, i):
            return self._set_slot(c, k, cry.lowering(b, i))
        raised = cry.star_raising(above, i)
        assert raised is not None, "negative branch selector guarantees a starred raise"
        return self._set_slot(c, k + 1, raised)

    def raising(self, c: ExtElement, i: int, k: int) -> ExtElement:
        cry = self.crystal
        b, above = self.slot(c, k), self.slot(c, k + 1)
        if cry.epsilon(b, i) > cry.epsilon_star(above, i):
            raised = cry.raising(b, i)
            assert raised is not None, "positive branch selector guarantees a raise"
            return self._set_slot(c, k, raised)
        return self._set_slot(c, k + 1, cry.star_lowering(above, i))

    def star_lowering(self, c: ExtElement, i: int, k: int) -> ExtElement:
        cry = self.crystal
        b, below = self.slot(c, k), self.slot(c, k - 1)
        if cry.epsilon_star(b, i) >= cry.epsilon(below, i):
            return self._set_slot(c, k, cry.star_lowering(b, i))
        raised = cry.raising(below, i)
        assert raised is not None, "negative starred selector guarantees a raise"
        return self._set_slot(c, k - 1, raised)

    def star_raising(self, c: ExtElement, i: int, k: int) -> ExtElement:
        cry = self.crystal
        b, below = self.slot(c, k), self.slot(c, k - 1)
        if cry.epsilon_star(b, i) > cry.epsilon(below, i):
            raised = cry.star_raising(b, i)
            assert raised is not None, "positive starred selector guarantees a starred raise"
            return self._set_slot(c, k, raised)
        return self._set_slot(c, k - 1, cry.lowering(below, i))

    def slot_weight(self, c: ExtElement, k: int) -> RootLatticeElem:
        """Weight of slot k with the alternating sign (-1)^k."""
        w = self.crystal.weight(self.slot(c, k))
        return -w if k % 2 else w

    def weight(self, c: ExtElement) -> RootLatticeElem:
        total = self.lattice.zero()
        for k, _ in c.slots:
            total = total + self.slot_weight(c, k)
        return total

    def total_height(self, c: ExtElement) -> int:
        return sum(self.crystal.height(b) for _, b in c.slots)

    def star_flip(self, c: ExtElement) -> ExtElement:
        """Mirror the slots through zero and star each entry; an involution."""
        return ExtElement(tuple((-k, self.crystal.star(b)) for k, b in c.slots))

    def shift(self, c: ExtElement, t: int) -> ExtElement:
        """Move every slot up by t."""
        return ExtElement(tuple((k + t, b) for k, b in c.slots))

    def path_to_highest(self, c: ExtElement) -> list[tuple[int, int]]:
        """A raising word (i, k) pairs that drives c to the highest element.

        Greedy: always raise in the largest supported slot, along the
        smallest index that admits a raise there.  Each step lowers the total
        height by one, so the word length equals the total height.
        """
        path: list[tuple[int, int]] = []
        while not c.is_highest():
            l = c.slots[0][0]
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
    return ";".join(f"{k}:{format_multisegment(b)}" for k, b in c.slots)


def parse_ext_element(text: str, ext: ExtendedCrystal) -> ExtElement:
    """Parse the "k:slot;k:slot" text form; "" and "1" denote the highest element.

    Each slot goes through the crystal's own parser, which refuses a segment
    past the rank before building anything.  A slot it refuses with a
    ValueError that is not a ParseError is reported once every chunk has
    parsed, at position 0, as an invalid slot is.
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
        try:
            k = int(head.strip())
        except ValueError:
            raise ParseError(text, offset, f"invalid slot index {head.strip()!r}") from None
        if k in mapping:
            raise ParseError(text, offset, f"duplicate slot {k}")
        try:
            mapping[k] = ext.crystal.parse(payload.strip())
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
