"""Property tests for the multisegment operators on multiplicities up to 20 digits."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from extcrystal.enumeration import all_segments
from extcrystal.msegment import Multisegment, MultisegmentCrystal

RANK = 4
CRY = MultisegmentCrystal(RANK)
SEGMENTS = all_segments(RANK)
BIG = 10**20 - 1  # the largest 20-digit multiplicity

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

multiplicities = st.one_of(st.integers(0, 3), st.integers(0, BIG))
elements = st.lists(multiplicities, min_size=len(SEGMENTS), max_size=len(SEGMENTS)).map(
    lambda mults: Multisegment.from_counts(zip(SEGMENTS, mults))
)
operators = (elements, st.integers(1, RANK))


@SETTINGS
@given(*operators)
def test_raising_undoes_lowering_in_both_families(b, i):
    assert CRY.raising(CRY.lowering(b, i), i) == b
    assert CRY.star_raising(CRY.star_lowering(b, i), i) == b
    up = CRY.raising(b, i)
    assert up is None or CRY.lowering(up, i) == b
    up = CRY.star_raising(b, i)
    assert up is None or CRY.star_lowering(up, i) == b


@SETTINGS
@given(*operators)
def test_lowering_steps_the_counter_by_one_and_the_weight_by_a_simple_root(b, i):
    alpha = CRY.lattice.alpha(i)
    low = CRY.lowering(b, i)
    assert CRY.epsilon(low, i) == CRY.epsilon(b, i) + 1
    assert CRY.weight(low) == CRY.weight(b) - alpha
    low = CRY.star_lowering(b, i)
    assert CRY.epsilon_star(low, i) == CRY.epsilon_star(b, i) + 1
    assert CRY.weight(low) == CRY.weight(b) - alpha


@SETTINGS
@given(*operators)
def test_raising_is_undefined_exactly_when_the_counter_is_zero(b, i):
    assert (CRY.raising(b, i) is None) == (CRY.epsilon(b, i) == 0)
    assert (CRY.star_raising(b, i) is None) == (CRY.epsilon_star(b, i) == 0)


@SETTINGS
@given(*operators)
def test_star_is_an_involution_that_swaps_the_counters(b, i):
    flipped = CRY.star(b)
    assert CRY.star(flipped) == b
    assert CRY.epsilon(flipped, i) == CRY.epsilon_star(b, i)
    assert CRY.epsilon_star(flipped, i) == CRY.epsilon(b, i)
