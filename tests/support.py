"""Test-side views and edits of multisegments, extended elements, nodes, node weights and root-lattice vectors, built on the public API.

It also keeps the package's seeded draws as first written, with the
standard library's randint, randrange and choice, as references.
"""

import random

from extcrystal.affine import HLWeight
from extcrystal.enumeration import all_segments
from extcrystal.extended import ExtElement
from extcrystal.msegment import Multisegment, Segment
from extcrystal.rootdata import RootLatticeElem
from extcrystal.signature import reduce_runs


def counts(m):
    """(segment, multiplicity) pairs, largest segment first in the left order."""
    return [(Segment(a, b), mult) for a, b, mult in m.entries()]


def segments(m):
    """Every segment of m once per copy, largest first in the left order."""
    return tuple(seg for seg, mult in counts(m) for _ in range(mult))


def add(m, seg):
    """m with one more copy of seg."""
    return Multisegment.from_counts([*counts(m), (seg, 1)])


def replace_one(m, old, new):
    """m with one copy of old removed and new inserted unless new is None."""
    pairs = counts(m)
    if old not in dict(pairs):
        raise ValueError(f"segment {old} does not occur in {m}")
    return Multisegment.from_counts([*pairs, (old, -1), *([] if new is None else [(new, 1)])])


def slot_weight(ext, c, k):
    """Weight of slot k of c with the alternating sign (-1)^k."""
    w = ext.crystal.weight(ext.slot(c, k))
    return -w if k % 2 else w


def from_coeffs(lat, coeffs):
    """The element sum_j c_j alpha_j of the root lattice lat."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != lat.n:
        raise ValueError(f"expected {lat.n} coefficients, got {len(coeffs)}")
    return RootLatticeElem(coeffs)


def coeff(v, j):
    """Coefficient of alpha_j in the root-lattice element v, with j counted from 1."""
    if not 1 <= j <= len(v):
        raise ValueError(f"coefficient index {j} out of range for rank {len(v)}")
    return v[j - 1]


def add_node(lam, p, count=1):
    """The node weight lam with count more units at the node p."""
    return HLWeight([*lam, (p, count)])


def remove_node(lam, p, count=1):
    """The node weight lam with count fewer units at the node p; ValueError if it holds fewer."""
    return HLWeight([*lam, (p, -count)])


def scan_word(model, lam, i, k):
    """lam's dense signature word along (i, k): alternating counts in scan order.

    Index r holds lam's coefficient at position 2n+1-r of the scan; index 0 is
    the zero minus before the plus at position 2n that opens the scan.
    """
    held = dict(lam)
    return [0, *(held.get(p, 0) for p in reversed(model.signature_nodes(i, k)))]


def reference_moves(model, lam, i, k):
    """(lowering, raising) of lam along (i, k) by the definition: the full word of 2n+1 counts, reduced."""
    nodes = model.signature_nodes(i, k)
    held = dict(lam.terms)
    # index r holds position 2n+1-r; index 0 is the zero minus above position 2n
    word = scan_word(model, lam, i, k)
    _, _, minus_at, plus_at = reduce_runs(word)
    padded = (None, *nodes, None)
    top = len(nodes) + 1

    def moved(drop, put):
        counts = dict(held)
        if drop is not None:
            counts[drop] -= 1
        if put is not None:
            counts[put] = counts.get(put, 0) + 1
        return HLWeight.from_counts(counts)

    t = 0 if plus_at is None else top - plus_at
    s = top if minus_at is None else top - minus_at
    return moved(padded[t], padded[t + 1]), moved(padded[s], padded[s - 1])


def sign_at(t):
    """The sign position t of a scan emits: plus at even positions, minus at odd ones."""
    return "+" if t % 2 == 0 else "-"


def block_of(model, p):
    """The unique k whose block contains the node p."""
    return model.segment_of_node(p)[1]


def node_of_segment(model, seg, k):
    """Node of the segment seg placed in slot k: the one term of the element's weight."""
    ((node, _),) = model.to_weight(ExtElement([(k, Multisegment([seg]))]))
    return node


def reference_draw(rng, n, max_ht):
    """A random multisegment and its height, drawn as enumeration._draw draws them."""
    budget = start = rng.randint(0, max_ht)
    picked = []
    while True:
        fits = [seg for seg in all_segments(n) if seg.height <= budget]
        if not fits or rng.random() < 0.2:
            break
        seg = rng.choice(fits)
        picked.append((seg, 1))
        budget -= seg.height
    return Multisegment.from_counts(picked), start - budget


def reference_ext_element(rng, ext, window, max_ht):
    """A random element, drawn as enumeration.random_ext_element draws it."""
    slots = {}
    budget = rng.randint(0, max_ht)
    for k in range(window[0], window[1] + 1):
        if budget <= 0:
            break
        take = rng.randint(0, budget)
        if take:
            m, height = reference_draw(rng, ext.n, take)
            slots[k] = m
            budget -= height
    return ext.element(slots)


def reference_query(rng, ext, window, max_ht):
    """The (c, i, k) of verify's random pairing query, drawn as verify._draw_shifted_query draws it before the shift."""
    c = reference_ext_element(rng, ext, window, max_ht)
    i = rng.randrange(1, ext.n + 1)
    k = rng.randrange(window[0] - 1, window[1] + 2)
    return c, i, k


class BoundedRng:
    """A generator that fails after 100 words: a draw that would loop fails instead of hanging."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.words = 0

    def getrandbits(self, k):
        self.words += 1
        if self.words > 100:
            raise RuntimeError("more than 100 words drawn")
        return self._rng.getrandbits(k)

    def random(self):
        return self._rng.random()
