"""Property tests for the segment/node dictionary at large coordinates: 20-digit slots and multiplicities."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from extcrystal.affine import AffineModel, HLNode
from extcrystal.msegment import Multisegment, Segment

MODELS = {n: AffineModel(n) for n in range(1, 13)}
HUGE = 10**20
BIG = HUGE - 1  # the largest 20-digit multiplicity

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

slots = st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))
multiplicities = st.one_of(st.integers(1, 5), st.integers(10**19, BIG))


@st.composite
def slotted(draw):
    """A rank and a slot -> {(a, b): multiplicity} assignment with no empty slot."""
    n = draw(st.integers(1, 12))
    segments = st.tuples(st.integers(1, n), st.integers(1, n)).map(sorted).map(tuple)
    contents = st.dictionaries(segments, multiplicities, min_size=1, max_size=6)
    return n, draw(st.dictionaries(slots, contents, max_size=4))


def shifted_node(n, a, b, k):
    """(i, a) of [a,b] in slot k: the k-fold dual shift (i, a) -> (n+1-i, a+n+1) of (b-a+1, a+b-2)."""
    i = b - a + 1
    return (n + 1 - i if k % 2 else i), a + b - 2 + k * (n + 1)


@SETTINGS
@given(slotted())
def test_dictionary_is_the_dual_shift_and_round_trips(drawn):
    n, assignment = drawn
    model = MODELS[n]
    c = model.ext.element(
        {k: Multisegment.from_counts((Segment(a, b), m) for (a, b), m in segs.items()) for k, segs in assignment.items()}
    )
    want = {shifted_node(n, a, b, k): m for k, segs in assignment.items() for (a, b), m in segs.items()}
    lam = model.to_weight(c)
    assert {(p.i, p.a): m for p, m in lam} == want
    assert [p for p, _ in lam] == sorted(HLNode(i, a) for i, a in want)
    assert model.to_extended(lam) == c
    for k, segs in assignment.items():
        for a, b in segs:
            p = HLNode(*shifted_node(n, a, b, k))
            assert model.segment_of_node(p) == (Segment(a, b), k)


def test_largest_rank_round_trips_the_widest_segment_far_down():
    model = AffineModel(64)
    k = -HUGE
    c = model.ext.inject(Multisegment([Segment(1, 64)]), k)
    lam = model.to_weight(c)
    assert [(p.i, p.a, m) for p, m in lam] == [(64, 63 + k * 65, 1)]
    assert model.to_extended(lam) == c
    assert model.segment_of_node(lam[0][0]) == (Segment(1, 64), k)
