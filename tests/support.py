"""Test-side views and edits of multisegments, extended elements, nodes and root-lattice vectors, built on the public API."""

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
