"""Affine model: lattice nodes, blocks, highest weights and the direct rule.

Nodes (i, a) with 1 <= i <= n and a - i odd label the fundamental data of the
affine type A model of rank n.  The dual shift sends (i, a) to
(n+1-i, a+n+1); its iterates cut the node set into blocks, block zero being
the triangle i-1 <= a <= 2n-1-i, and block k its image under k dual shifts.

Each node corresponds to a segment placed in the slot given by its block: the
segment [a,b] in slot k maps to the k-fold dual shift of the node
(b-a+1, b+a-2), read off a per-rank table; back, the block is
2q + (r > 2(n-i)) with q, r = divmod(a-i+1, 2(n+1)).  Transporting the
extended-crystal operators through this correspondence gives a direct rule on
formal sums of nodes with nonnegative coefficients, the highest weights: the
operator along (i, k) scans a fixed ordered list of 2n nodes, reads their
coefficients as the alternating counts of a signature word (see
``signature``), cancels adjacent (+,-) pairs, and moves one unit of
coefficient between neighbouring list positions.  The operators splice that
unit into the weight's sorted terms in one pass, and the conversions sort
their nodes once, unchecked; ``add_node``, ``remove_node`` and weights built
from outside input go through the validating constructor, which merges, checks
and sorts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .extended import ExtElement, ExtendedCrystal, _from_slots
from .msegment import MultisegmentCrystal, Segment, _ends, _index, _of
from .parsing import Scanner, parse_counted
from .rootdata import RootLatticeElem, check_rank
from .signature import reduce_runs


@dataclass(frozen=True)
class HLNode:
    """Lattice node (i, a); the coordinates differ by an odd number."""

    i: int
    a: int

    def __post_init__(self) -> None:
        if not (isinstance(self.i, int) and isinstance(self.a, int)):
            raise ValueError(f"node coordinates must be integers, got ({self.i!r},{self.a!r})")
        if self.i < 1:
            raise ValueError(f"node ({self.i},{self.a}): first coordinate must be positive")
        if (self.a - self.i) % 2 == 0:
            raise ValueError(f"node ({self.i},{self.a}): coordinates must differ by an odd number")

    def __str__(self) -> str:
        return f"({self.i},{self.a})"


def _node_sort_key(p: HLNode) -> tuple[int, int]:
    return (p.a, p.i)


@dataclass(frozen=True)
class HLWeight:
    """Formal sum of nodes with positive integer coefficients."""

    terms: tuple[tuple[HLNode, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[HLNode, int] = {}
        for p, c in self.terms:
            if not isinstance(c, int):
                raise ValueError(f"coefficient of {p} must be an integer, got {c!r}")
            merged[p] = merged.get(p, 0) + c
        for p, c in merged.items():
            if c < 0:
                raise ValueError(f"negative coefficient {c} at node {p}")
        canon = tuple(sorted(((p, c) for p, c in merged.items() if c > 0), key=lambda t: _node_sort_key(t[0])))
        object.__setattr__(self, "terms", canon)

    @staticmethod
    def from_counts(counts: dict[HLNode, int]) -> "HLWeight":
        return HLWeight(tuple(counts.items()))

    def coeff(self, p: HLNode) -> int:
        for q, c in self.terms:
            if q == p:
                return c
        return 0

    def add_node(self, p: HLNode, count: int = 1) -> "HLWeight":
        return HLWeight(self.terms + ((p, count),))

    def remove_node(self, p: HLNode, count: int = 1) -> "HLWeight":
        if self.coeff(p) < count:
            raise ValueError(f"cannot remove {count} of {p}: coefficient is {self.coeff(p)}")
        return HLWeight(self.terms + ((p, -count),))

    def _moved(self, drop: HLNode | None, put: HLNode | None) -> "HLWeight":
        """One unit fewer at node drop and one more at put; None skips either.

        One pass splices both changes into the sorted terms: drop loses a unit
        or vanishes at coefficient 1, put gains one or enters at its (a, i)
        place.  drop must be present.
        """
        out = []
        gone = None if drop is None else (drop.a, drop.i)
        key = None if put is None else (put.a, put.i)
        for term in self.terms:
            p, c = term
            at = (p.a, p.i)
            if key is not None and at >= key:
                if at == key:
                    term = (p, c + 1)
                else:
                    out.append((put, 1))
                key = None
            if at == gone:
                if c > 1:
                    out.append((p, c - 1))
                continue
            out.append(term)
        if key is not None:
            out.append((put, 1))
        lam = object.__new__(HLWeight)
        object.__setattr__(lam, "terms", tuple(out))
        return lam

    def support(self) -> tuple[HLNode, ...]:
        return tuple(p for p, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_hl_weight(self)


ZERO_WEIGHT = HLWeight()


def _hl_node(i: int, a: int) -> HLNode:
    """The node (i, a), which the caller knows to be valid; nothing is checked."""
    p = object.__new__(HLNode)
    object.__setattr__(p, "i", i)
    object.__setattr__(p, "a", a)
    return p


def _sorted_weight(keyed: list) -> HLWeight:
    """Unchecked weight of ((a, i), coefficient) entries at distinct nodes with positive coefficients."""
    keyed.sort()
    lam = object.__new__(HLWeight)
    object.__setattr__(lam, "terms", tuple((_hl_node(i, a), c) for (a, i), c in keyed))
    return lam


@dataclass(frozen=True)
class SignatureNodes:
    """The ordered nodes one operator scans, first position last in the scan.

    Position t (counted from 1) holds the node written a_t; odd positions
    emit minus symbols and even positions emit plus symbols.  The scan runs
    from the last position down to the first; ``position`` inverts ``nodes``,
    keyed on (i, a) tuples, which hash faster than nodes.
    """

    nodes: tuple[HLNode, ...]
    position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", {(p.i, p.a): t for t, p in enumerate(self.nodes, 1)})

    def word(self, lam: HLWeight) -> list[int]:
        """lam's signature word as alternating counts in scan order.

        Index r holds the coefficient at position 2n+1-r; index 0 is the zero
        minus before the plus at position 2n that opens the scan.
        """
        size = len(self.nodes) + 1
        counts = [0] * size
        position = self.position
        for p, c in lam.terms:
            t = position.get((p.i, p.a))
            if t:
                counts[size - t] = c
        return counts

    def node_at(self, t: int) -> HLNode:
        return self.nodes[t - 1]

    def sign_at(self, t: int) -> str:
        return "+" if t % 2 == 0 else "-"

    def __len__(self) -> int:
        return len(self.nodes)


class AffineModel:
    """Block lattice, segment correspondence and the direct operator rule."""

    def __init__(self, n: int):
        check_rank(n)
        self.n = n
        self.crystal = MultisegmentCrystal(n)
        self.ext = ExtendedCrystal(self.crystal)
        self._signature_nodes_cache: dict[tuple[int, int], SignatureNodes] = {}
        self._base = tuple((b - a + 1, a + b - 2) for a, b in map(_ends, range(n * (n + 1) // 2)))

    # -- the node lattice -------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"operator index {i} out of range for rank {self.n}")

    def check_node(self, p: HLNode) -> None:
        if not 1 <= p.i <= self.n:
            raise ValueError(f"node {p} out of range for rank {self.n}")

    def dual_shift(self, p: HLNode, k: int = 1) -> HLNode:
        """Apply the dual shift k times; k may be negative."""
        i = p.i if k % 2 == 0 else self.n + 1 - p.i
        return HLNode(i, p.a + k * (self.n + 1))

    def _place(self, position: int, k: int) -> tuple[int, int]:
        """(i, a) of the segment at a multiplicity position in slot k: its base node, shifted k times."""
        i, a = self._base[position]
        return (self.n + 1 - i if k % 2 else i), a + k * (self.n + 1)

    def _locate(self, i: int, a: int) -> tuple[int, int]:
        """(slot, multiplicity position) of the node (i, a), for 1 <= i <= n; see the module docstring."""
        step = self.n + 1
        q, r = divmod(a - i + 1, 2 * step)
        k = 2 * q + (r > 2 * (self.n - i))
        i, a = (step - i if k % 2 else i), a - k * step
        return k, _index((a - i + 3) // 2, (a + i + 1) // 2)

    def block_of(self, p: HLNode) -> int:
        """The unique k whose block contains p."""
        return self.segment_of_node(p)[1]

    def block_nodes(self, k: int) -> tuple[HLNode, ...]:
        return tuple(sorted((_hl_node(*self._place(j, k)) for j in range(len(self._base))), key=_node_sort_key))

    # -- correspondence with slotted multisegments ------------------------

    def node_of_segment(self, seg: Segment, k: int) -> HLNode:
        """Node of the segment [a,b] placed in slot k."""
        if seg.b > self.n:
            raise ValueError(f"segment {seg} does not fit inside rank {self.n}")
        return _hl_node(*self._place(_index(seg.a, seg.b), k))

    def segment_of_node(self, p: HLNode) -> tuple[Segment, int]:
        """The (segment, slot) pair a node stands for."""
        self.check_node(p)
        k, position = self._locate(p.i, p.a)
        return Segment(*_ends(position)), k

    def to_weight(self, c: ExtElement) -> HLWeight:
        """Total node count of a slotted multisegment element."""
        keyed = []
        for k, m in c.slots:
            self.crystal.validate(m)
            for position, mult in enumerate(m.mults):
                if mult:
                    i, a = self._place(position, k)
                    keyed.append(((a, i), mult))
        # distinct (slot, position) pairs give distinct nodes: nothing to merge
        return _sorted_weight(keyed)

    def to_extended(self, lam: HLWeight) -> ExtElement:
        """Inverse of to_weight."""
        per_slot: dict[int, list[int]] = {}
        for p, c in lam.terms:
            self.check_node(p)
            k, position = self._locate(p.i, p.a)
            mults = per_slot.setdefault(k, [])
            mults.extend([0] * (position + 1 - len(mults)))
            mults[position] = c
        return _from_slots(tuple((k, _of(per_slot[k])) for k in sorted(per_slot, reverse=True)))

    # -- weights ----------------------------------------------------------

    def node_weight(self, p: HLNode) -> RootLatticeElem:
        """Root-lattice weight of a node, alternating in sign with its block."""
        seg, k = self.segment_of_node(p)
        v = RootLatticeElem(tuple(-1 if seg.a <= j <= seg.b else 0 for j in range(1, self.n + 1)))
        return -v if k % 2 else v

    def weight(self, lam: HLWeight) -> RootLatticeElem:
        total = self.crystal.lattice.zero()
        for p, c in lam.terms:
            total = total + RootLatticeElem(tuple(c * x for x in self.node_weight(p).coeffs))
        return total

    def dual_shift_weight(self, lam: HLWeight, k: int = 1) -> HLWeight:
        """Every node of lam, all of rank n, dual-shifted k times."""
        step, flip = self.n + 1, k % 2
        return _sorted_weight([((p.a + k * step, step - p.i if flip else p.i), c) for p, c in lam.terms])

    # -- the direct operator rule -----------------------------------------

    def signature_nodes(self, i: int, k: int) -> SignatureNodes:
        """The 2n nodes the (i, k) operator scans, in closed form.

        In block zero, position 2j-1 holds (j, 2(i-1)+j-1) and position 2j
        holds (j, 2(i-1)+j+1); block k is its elementwise k-fold dual shift,
        which preserves positions.
        """
        self._check_index(i)
        cached = self._signature_nodes_cache.get((i, k))
        if cached is not None:
            return cached
        base = []
        for j in range(1, self.n + 1):
            base.append(HLNode(j, 2 * (i - 1) + j - 1))
            base.append(HLNode(j, 2 * (i - 1) + j + 1))
        sn = SignatureNodes(tuple(self.dual_shift(p, k) for p in base))
        self._signature_nodes_cache[(i, k)] = sn
        return sn

    def lowering(self, lam: HLWeight, i: int, k: int) -> HLWeight:
        """Move one unit from the leftmost surviving plus to the next position up.

        Past the last position the unit disappears; with no surviving plus a
        unit appears at the first position.
        """
        sn = self.signature_nodes(i, k)
        r = reduce_runs(sn.word(lam))[3]
        if r is None:
            return lam._moved(None, sn.node_at(1))
        t = len(sn) + 1 - r
        return lam._moved(sn.node_at(t), sn.node_at(t + 1) if t < len(sn) else None)

    def raising(self, lam: HLWeight, i: int, k: int) -> HLWeight:
        """Move one unit from the rightmost surviving minus one position down.

        Past the first position the unit disappears; with no surviving minus
        a unit appears at the last position.
        """
        sn = self.signature_nodes(i, k)
        r = reduce_runs(sn.word(lam))[2]
        if r is None:
            return lam._moved(None, sn.node_at(len(sn)))
        s = len(sn) + 1 - r
        return lam._moved(sn.node_at(s), sn.node_at(s - 1) if s > 1 else None)


def format_hl_weight(lam: HLWeight) -> str:
    """Canonical text form, e.g. "(1,-2),2*(2,-1),(3,4)"; zero is "0"."""
    if lam.is_zero():
        return "0"
    parts = []
    for p, c in lam.terms:
        parts.append(f"{c}*{p}" if c > 1 else str(p))
    return ",".join(parts)


def parse_hl_weight(text: str) -> HLWeight:
    """Parse comma-separated "(i,a)" terms with optional "c*" prefixes; "0" is zero."""
    return HLWeight(tuple(parse_counted(text, ("0",), _read_node, "coefficient")))


def _read_node(sc: Scanner) -> HLNode:
    sc.expect("(")
    i = sc.take_int()
    sc.expect(",")
    a = sc.take_int()
    sc.expect(")")
    return HLNode(i, a)
