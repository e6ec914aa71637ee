"""Test-side views and edits of multisegments, extended elements, nodes and root-lattice vectors, built on the public API.

It also keeps the package's seeded draws as first written, with the
standard library's randint, randrange and choice, as references.
"""

from extcrystal.enumeration import all_segments
from extcrystal.extended import ExtElement
from extcrystal.msegment import Multisegment, Segment
from extcrystal.rootdata import RootLatticeElem


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
    """The (c, i, k) of verify's random pairing query, drawn as verify._random_query draws it."""
    c = reference_ext_element(rng, ext, window, max_ht)
    i = rng.randrange(1, ext.n + 1)
    k = rng.randrange(window[0] - 1, window[1] + 2)
    return c, i, k
