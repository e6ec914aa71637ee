"""Property tests for the extended operators on slots with multiplicities up to 20 digits."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from extcrystal.enumeration import all_segments
from extcrystal.extended import ExtendedCrystal
from extcrystal.msegment import Multisegment, MultisegmentCrystal

RANK = 4
EXT = ExtendedCrystal(MultisegmentCrystal(RANK))
SEGMENTS = all_segments(RANK)
BIG = 10**20 - 1  # the largest 20-digit multiplicity

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

multiplicities = st.one_of(st.integers(0, 3), st.integers(0, BIG))
slot_values = st.lists(multiplicities, min_size=len(SEGMENTS), max_size=len(SEGMENTS)).map(
    lambda mults: Multisegment.from_counts(zip(SEGMENTS, mults))
)
elements = st.dictionaries(st.integers(-3, 3), slot_values, max_size=3).map(EXT.element)
operators = (elements, st.integers(1, RANK), st.integers(-4, 4))


@SETTINGS
@given(*operators)
def test_both_families_are_inverse_pairs(c, i, k):
    assert EXT.raising(EXT.lowering(c, i, k), i, k) == c
    assert EXT.lowering(EXT.raising(c, i, k), i, k) == c
    assert EXT.star_raising(EXT.star_lowering(c, i, k), i, k) == c
    assert EXT.star_lowering(EXT.star_raising(c, i, k), i, k) == c


@SETTINGS
@given(*operators)
def test_starred_operators_are_the_flip_conjugates_of_the_plain_ones(c, i, k):
    flipped = EXT.star_flip(c)
    assert EXT.star_lowering(c, i, k) == EXT.star_flip(EXT.lowering(flipped, i, -k))
    assert EXT.star_raising(c, i, k) == EXT.star_flip(EXT.raising(flipped, i, -k))


@SETTINGS
@given(*operators)
def test_lowering_steps_the_branch_selector_by_one(c, i, k):
    assert EXT.branch_selector(EXT.lowering(c, i, k), i, k) == EXT.branch_selector(c, i, k) + 1
