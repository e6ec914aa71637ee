"""star against a second algorithm for the involution: Moeglin-Waldspurger chain peeling.

The algorithm (Moeglin-Waldspurger, J. reine angew. Math. 372 (1986);
Knight-Zelevinsky, Adv. Math. 117 (1996)) uses no braid moves.  One step: let
e be the largest end and D1 the shortest segment ending at e; D(j+1) is the
shortest segment that ends at e-j and starts before D(j) starts, until there
is none.  With r segments in the chain, cut the last point off each of them
(a one-point segment disappears) and emit [e-r+1, e].  The emitted segments,
once the multisegment is empty, are the image.
"""

import random

from extcrystal.enumeration import iter_multisegments, random_multisegment
from extcrystal.msegment import Multisegment, MultisegmentCrystal, Segment
from support import counts


def moeglin_waldspurger(m):
    """The Zelevinsky involution of m by peeling chains, one emitted segment per step."""
    left = {(seg.a, seg.b): mult for seg, mult in counts(m)}
    out = {}
    while left:
        e = max(b for _, b in left)
        chain, start = [], e + 1
        for end in range(e, 0, -1):
            starts = [a for a, b in left if b == end and a < start]
            if not starts:
                break
            start = max(starts)
            chain.append((start, end))
        for a, b in chain:
            left[a, b] -= 1
            if not left[a, b]:
                del left[a, b]
            if a < b:
                left[a, b - 1] = left.get((a, b - 1), 0) + 1
        top = (e - len(chain) + 1, e)
        out[top] = out.get(top, 0) + 1
    return Multisegment.from_counts((Segment(a, b), mult) for (a, b), mult in out.items())


def _mismatches(crystal, inputs):
    return [m for m in inputs if crystal.star(m) != moeglin_waldspurger(m)]


# every multisegment of rank n up to the height bound
_EXHAUSTIVE = ((1, 8), (2, 7), (3, 6), (4, 5), (5, 4))


def test_star_is_the_moeglin_waldspurger_involution_exhaustive():
    checked = 0
    for n, max_ht in _EXHAUSTIVE:
        inputs = list(iter_multisegments(n, max_ht))
        assert _mismatches(MultisegmentCrystal(n), inputs) == [], n
        checked += len(inputs)
    assert checked == 838


def test_star_is_the_moeglin_waldspurger_involution_on_rank_8_draws():
    rng = random.Random(1)
    inputs = [random_multisegment(rng, 8, 40) for _ in range(300)]
    assert max(m.height() for m in inputs) > 20
    assert _mismatches(MultisegmentCrystal(8), inputs) == []


def test_a_star_without_its_last_move_fails_the_comparison():
    # at rank 2 that star is the identity, an involution, so only a second
    # algorithm tells it apart
    crystal = MultisegmentCrystal(2)
    crystal._moves = crystal._moves[:-1]
    inputs = list(iter_multisegments(2, 7))
    assert all(crystal.star(m) == m for m in inputs)
    assert len(_mismatches(crystal, inputs)) == 48
