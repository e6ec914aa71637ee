"""Affine model: lattice nodes, blocks, highest weights and the direct rule.

Nodes (i, a) with 1 <= i <= n and a - i odd label the fundamental data of the
affine type A model of rank n.  The dual shift sends (i, a) to
(n+1-i, a+n+1); its iterates cut the node set into blocks, block zero being
the triangle i-1 <= a <= 2n-1-i, and block k its image under k dual shifts.

Each node corresponds to a segment placed in the slot given by its block: the
segment [a,b] in slot k is the k-fold dual shift of the node (b-a+1, a+b-2),
and back, a node (i, a) of block zero reads the segment
[(a-i+3)/2, (a+i+1)/2] in slot zero, and a node of block k the segment its
(-k)-fold shift reads, in slot k.  Two dual shifts add 2(n+1) to a and keep
i, so the model keeps the dictionary as two per-rank tables, built once:
keys[parity][position], the key of the segment at each multiplicity position
in slot 0 and in slot 1, and at[i][r], the (parity, position) of the nodes
(i, a) with a-i+1 = r mod 2(n+1), which all read the same segment in slots of
one parity.  to_weight reads keys[k mod 2] and adds (k - k mod 2)(n+1) to
each a; to_extended takes q, r = divmod(a-i+1, 2(n+1)) and reads the slot
2q + parity and the position from at[i][r].  Transporting the
extended-crystal operators through this correspondence gives a direct rule on
formal sums of nodes with nonnegative coefficients, the highest weights: the
operator along (i, k) scans a fixed ordered list of 2n nodes, reads the
weight's coefficients there as the alternating counts of a signature word
(see ``signature``), cancels adjacent (+,-) pairs, and moves one unit of
coefficient between neighbouring list positions.  The model builds each
list once, with None at both ends and its map from node to position.  An
operator makes one walk of the weight's terms.  It keeps those on the list,
in scan order, with a zero count between two of the same sign: the sparse
word, so it reads and reduces only what the weight holds there.  Until the
first such term turns up, the walk also copies the terms with a unit spliced
in at an end of the list; with nothing there that copy is the answer and the
walk is all the work, and otherwise one more pass splices the move into the
terms.  A node is the tuple (a, i), its own sort key, and a weight is the
tuple of its (node, coefficient) terms in node order, so both compare and
hash as plain tuples.  The conversions sort their nodes once, unchecked;
weights built from outside input go through the validating constructor,
which merges, checks and sorts.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .extended import ExtElement, ExtendedCrystal, _from_slots
from .msegment import MultisegmentCrystal, Segment, _ends, _of
from .parsing import INT, counted_term, counted_terms, refusal
from .rootdata import RootLatticeElem, check_rank
from .signature import reduce_runs


class HLNode(tuple):
    """Lattice node (i, a), coordinates differing by an odd number; the tuple (a, i), so it sorts as a key."""

    __slots__ = ()

    def __new__(cls, i: int, a: int) -> "HLNode":
        if not (type(i) is int and type(a) is int):
            raise ValueError(f"node coordinates must be integers, got ({i!r},{a!r})")
        if i < 1:
            raise ValueError(f"node ({i},{a}): first coordinate must be positive")
        if (a - i) % 2 == 0:
            raise ValueError(f"node ({i},{a}): coordinates must differ by an odd number")
        return tuple.__new__(cls, (a, i))

    i = property(itemgetter(1))
    a = property(itemgetter(0))

    def __getnewargs__(self) -> tuple[int, int]:
        # pickle rebuilds the node through __new__(i, a)
        return self[1], self[0]

    def __str__(self) -> str:
        return f"({self[1]},{self[0]})"

    def __repr__(self) -> str:
        return f"HLNode(i={self[1]}, a={self[0]})"


class HLWeight(tuple):
    """Formal sum of nodes with positive integer coefficients: the sorted tuple of its (node, coefficient) terms."""

    __slots__ = ()

    def __new__(cls, terms=()) -> "HLWeight":
        merged: dict[HLNode, int] = {}
        for p, c in terms:
            if not isinstance(p, HLNode):
                raise ValueError(f"expected a node, got {p!r}")
            if type(c) is not int:
                raise ValueError(f"coefficient of {p} must be an integer, got {c!r}")
            merged[p] = merged.get(p, 0) + c
        for p, c in merged.items():
            if c < 0:
                raise ValueError(f"negative coefficient {c} at node {p}")
        return tuple.__new__(cls, sorted((p, c) for p, c in merged.items() if c > 0))

    @property
    def terms(self) -> tuple[tuple[HLNode, int], ...]:
        return self[:]

    def __repr__(self) -> str:
        return f"HLWeight(terms={self[:]!r})"

    @staticmethod
    def from_counts(counts: dict[HLNode, int]) -> "HLWeight":
        return HLWeight(tuple(counts.items()))

    def support(self) -> tuple[HLNode, ...]:
        return tuple(p for p, _ in self)

    def is_zero(self) -> bool:
        return not self

    def __str__(self) -> str:
        return format_hl_weight(self)


ZERO_WEIGHT = HLWeight()


def _hl_node(key: tuple[int, int]) -> HLNode:
    """The node of the key (a, i), which the caller knows to be valid; nothing is checked."""
    return tuple.__new__(HLNode, key)


def _sorted_weight(keyed: list) -> HLWeight:
    """Unchecked weight of ((a, i), coefficient) entries at distinct nodes with positive coefficients."""
    keyed.sort()
    return tuple.__new__(HLWeight, [(tuple.__new__(HLNode, key), c) for key, c in keyed])


def _dictionary(n: int) -> tuple[tuple[tuple, tuple], tuple]:
    """The two tables (keys, at) of the segment/node dictionary at rank n; see the module docstring.

    at inverts keys; at[i] holds None at odd r, which no node has, and at[0] is unused.
    """
    step = n + 1
    base = tuple((a + b - 2, b - a + 1) for a, b in map(_ends, range(n * step // 2)))
    keys = base, tuple((a + step, step - i) for a, i in base)
    at = [[None] * 2 * step for _ in range(step)]
    for parity, slot in enumerate(keys):
        for position, (a, i) in enumerate(slot):
            # blocks 0 and 1 both have 0 <= a - i + 1 <= 2n
            at[i][a - i + 1] = parity, position
    return keys, tuple(map(tuple, at))


class AffineModel:
    """Block lattice, segment correspondence and the direct operator rule."""

    def __init__(self, n: int):
        check_rank(n)
        self.n = n
        self.crystal = MultisegmentCrystal(n)
        self.ext = ExtendedCrystal(self.crystal)
        # (i, k) -> (padded, position): the scan's nodes with None at both ends, and its inverse
        self._scans: dict[tuple[int, int], tuple[tuple, dict[HLNode, int]]] = {}
        self._keys, self._at = _dictionary(n)

    # -- the node lattice -------------------------------------------------

    def dual_shift(self, p: HLNode, k: int = 1) -> HLNode:
        """Apply the dual shift k times; k may be negative."""
        a, i = p
        return HLNode(self.n + 1 - i if k % 2 else i, a + k * (self.n + 1))

    def block_nodes(self, k: int) -> tuple[HLNode, ...]:
        parity = k & 1
        shift = (k - parity) * (self.n + 1)
        return tuple(sorted(_hl_node((a + shift, i)) for a, i in self._keys[parity]))

    # -- correspondence with slotted multisegments ------------------------

    def segment_of_node(self, p: HLNode) -> tuple[Segment, int]:
        """The (segment, slot) pair a node stands for."""
        ((k, m),) = self.to_extended(((p, 1),))
        return Segment(*_ends(len(m) - 1)), k  # the node's unit is m's last multiplicity

    def to_weight(self, c: ExtElement) -> HLWeight:
        """Total node count of a slotted multisegment element."""
        step, keys, terms = self.n + 1, self._keys, []
        for k, m in c:
            self.crystal.validate(m)
            parity = k & 1
            shift, slot, mults = (k - parity) * step, keys[parity], m[:]
            for position in compress(range(len(mults)), mults):
                a, i = slot[position]
                terms.append((tuple.__new__(HLNode, (a + shift, i)), mults[position]))
        # distinct (slot, position) pairs give distinct nodes: nothing to merge
        terms.sort()
        return tuple.__new__(HLWeight, terms)

    def to_extended(self, lam: HLWeight) -> ExtElement:
        """Inverse of to_weight."""
        n, period, at = self.n, 2 * self.n + 2, self._at
        found = []
        for (a, i), c in lam:
            if not 1 <= i <= n:
                raise ValueError(f"node ({i},{a}) out of range for rank {n}")
            q, r = divmod(a - i + 1, period)
            parity, position = at[i][r]
            found.append((2 * q + parity, position, c))
        # by slot, descending, and within a slot from the top position down,
        # which sizes that slot's multiplicity list
        found.sort(reverse=True)
        slots, last = [], None
        for k, position, c in found:
            if k != last:
                if last is not None:
                    slots.append((last, _of(mults)))
                last, mults = k, [0] * (position + 1)
            mults[position] = c
        if last is not None:
            slots.append((last, _of(mults)))
        return _from_slots(tuple(slots))

    # -- weights ----------------------------------------------------------

    def node_weight(self, p: HLNode) -> RootLatticeElem:
        """Root-lattice weight of a node, alternating in sign with its block."""
        seg, k = self.segment_of_node(p)
        v = RootLatticeElem(tuple(-1 if seg.a <= j <= seg.b else 0 for j in range(1, self.n + 1)))
        return -v if k % 2 else v

    def weight(self, lam: HLWeight) -> RootLatticeElem:
        total = self.crystal.lattice.zero()
        for p, c in lam:
            total = total + RootLatticeElem(c * x for x in self.node_weight(p))
        return total

    def dual_shift_weight(self, lam: HLWeight, k: int = 1) -> HLWeight:
        """Every node of lam, all of rank n, dual-shifted k times."""
        step, flip = self.n + 1, k % 2
        return _sorted_weight([((a + k * step, step - i if flip else i), c) for (a, i), c in lam])

    # -- the direct operator rule -----------------------------------------

    def _scan(self, i: int, k: int) -> tuple[tuple, dict[HLNode, int]]:
        """Build and cache the (i, k) scan table (padded, position), in closed form.

        In block zero, position 2j-1 holds (j, 2(i-1)+j-1) and position 2j
        holds (j, 2(i-1)+j+1); block k is its elementwise k-fold dual shift,
        which preserves positions.  Position t is padded[t] for
        0 <= t <= 2n+1, None at 0 and 2n+1, and position inverts it.
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"operator index {i} out of range for rank {self.n}")
        nodes = [self.dual_shift(HLNode(j, 2 * (i - 1) + j + d), k) for j in range(1, self.n + 1) for d in (-1, 1)]
        scan = self._scans[(i, k)] = (None, *nodes, None), {p: t for t, p in enumerate(nodes, 1)}
        return scan

    def signature_nodes(self, i: int, k: int) -> tuple[HLNode, ...]:
        """The 2n nodes the (i, k) operator scans, position t at index t-1.

        Odd positions emit minus symbols and even positions plus symbols; the
        scan runs from the last position down to the first.
        """
        return (self._scans.get((i, k)) or self._scan(i, k))[0][1:-1]

    def _step(self, lam: HLWeight, i: int, k: int, d: int) -> HLWeight:
        """lam after the (i, k) operator: lowering for d = 1, raising for d = -1.

        Lowering moves a unit from the leftmost surviving plus of the sparse
        word one position up, raising from the rightmost surviving minus one
        position down; past an end of the scan the unit disappears.  With no
        surviving plus, lowering's unit appears at position 1, and with no
        surviving minus, raising's appears at position 2n.
        """
        nodes, position = self._scans.get((i, k)) or self._scan(i, k)
        put = nodes[1] if d > 0 else nodes[-2]
        # until a term on the scan turns up, copy lam with put at its sorted place
        terms, out = iter(lam), []
        for term in terms:
            p = term[0]
            t = position.get(p)
            if t:
                break
            if put is not None and p > put:
                out.append((put, 1))
                put = None
            out.append(term)
        else:
            if put is not None:
                out.append((put, 1))
            return tuple.__new__(HLWeight, out)
        hits = [(t, term[1])]
        for p, c in terms:
            t = position.get(p)
            if t:
                hits.append((t, c))
        hits.sort(reverse=True)
        counts, at = [], []
        for t, c in hits:
            # a count's index and position differ in parity: minuses sit at
            # odd positions and even indices
            if not (len(counts) ^ t) & 1:
                counts.append(0)
                at.append(0)
            counts.append(c)
            at.append(t)
        _, _, minus_at, plus_at = reduce_runs(counts)
        if d > 0:
            t = 0 if plus_at is None else at[plus_at]
        else:
            t = len(nodes) - 1 if minus_at is None else at[minus_at]
        drop, put = nodes[t], nodes[t + d]
        out = []
        for term in lam:
            p, c = term
            if put is not None and p >= put:
                if p == put:
                    term = (p, c + 1)
                else:
                    out.append((put, 1))
                put = None
            if p == drop:
                if c > 1:
                    out.append((p, c - 1))
                continue
            out.append(term)
        if put is not None:
            out.append((put, 1))
        return tuple.__new__(HLWeight, out)

    def lowering(self, lam: HLWeight, i: int, k: int) -> HLWeight:
        """Move one unit from the leftmost surviving plus to the next position up; see ``_step``."""
        return self._step(lam, i, k, 1)

    def raising(self, lam: HLWeight, i: int, k: int) -> HLWeight:
        """Move one unit from the rightmost surviving minus one position down; see ``_step``."""
        return self._step(lam, i, k, -1)


def format_hl_weight(lam: HLWeight) -> str:
    """Canonical text form, e.g. "(1,-2),2*(2,-1),(3,4)"; zero is "0"."""
    if lam.is_zero():
        return "0"
    parts = []
    for p, c in lam:
        parts.append(f"{c}*{p}" if c > 1 else str(p))
    return ",".join(parts)


def parse_hl_weight(text: str) -> HLWeight:
    """Parse comma-separated "(i,a)" terms with optional "c*" prefixes; "0" is zero; repeated nodes add up."""
    merged: dict[tuple[int, int], int] = {}
    try:
        for m in counted_terms(text, ("0",), _NODE_TERM):
            count, _, _, _, i, _, a, _, end = m.groups()
            i, a = int(i), int(a)
            count = int(count) if count else 1
            if end is None or i < 1 or not (a - i) & 1 or count < 1:
                raise ValueError
            key = a, i
            merged[key] = merged.get(key, 0) + count
    except ValueError:  # a missing token, more digits than int() converts, or a rule broken
        raise refusal(text, _NODE_TERM, HLNode, "coefficient") from None
    return _sorted_weight(list(merged.items()))


_NODE_TERM = counted_term("(", INT, ",", INT, ")")  # groups: count, '*', item start, '(', i, ',', a, ')', end
