"""The value types are flat tuples: no instance dict, one value from either constructor, the same repr."""

import pickle

import pytest

from extcrystal.affine import ZERO_WEIGHT, AffineModel, HLNode, HLWeight, _sorted_weight, parse_hl_weight
from extcrystal.extended import HIGHEST, ExtElement, ExtendedCrystal, _from_slots, parse_ext_element
from extcrystal.msegment import EMPTY, Multisegment, MultisegmentCrystal, Segment, _of, parse_multisegment
from extcrystal.rootdata import RootLattice, RootLatticeElem
from support import from_coeffs

C3 = MultisegmentCrystal(3)
EXT3 = ExtendedCrystal(C3)
M3 = AffineModel(3)
LATTICE = RootLattice(3)

M = parse_multisegment("2*[1,3],[2]")
C = parse_ext_element("1:[1];0:[2,3]", EXT3)
LAM = parse_hl_weight("(1,0),2*(2,1)")
V = RootLatticeElem((1, -2, 0))
SEG = Segment(2, 5)


def assert_same_value(got, want):
    assert got == want and hash(got) == hash(want) and type(got) is type(want)


def test_values_have_no_instance_dict():
    values = [M, C, LAM, V, EMPTY, HIGHEST, ZERO_WEIGHT, LATTICE.zero()]
    # and what the unchecked builders of each type return
    values += [C3.lowering(M, 1), C3.star(M), EXT3.lowering(C, 2, 0), M3.lowering(LAM, 1, 0), M3.to_weight(C)]
    values += [M3.to_extended(LAM), EXT3.weight(C), -V, SEG, M3.segment_of_node(HLNode(2, 1))[0]]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_validating_and_unchecked_constructors_give_one_value():
    assert_same_value(Multisegment((Segment(2, 2), Segment(1, 3), Segment(1, 3))), M)
    assert_same_value(Multisegment.from_counts([(Segment(1, 3), 2), (Segment(2, 2), 1)]), M)
    assert_same_value(_of([0, 0, 1, 2, 0, 0]), M)
    assert_same_value(C3.lowering(C3.raising(M, 1), 1), M)
    assert_same_value(C3.star(C3.star(M)), M)

    slots = ((1, parse_multisegment("[1]")), (0, parse_multisegment("[2,3]")))
    assert_same_value(ExtElement(slots[::-1]), C)
    assert_same_value(_from_slots(slots), C)
    assert_same_value(EXT3.raising(EXT3.lowering(C, 2, 0), 2, 0), C)
    assert_same_value(M3.to_extended(M3.to_weight(C)), C)

    assert_same_value(HLWeight(((HLNode(2, 1), 1), (HLNode(1, 0), 1), (HLNode(2, 1), 1))), LAM)
    assert_same_value(HLWeight.from_counts({HLNode(2, 1): 2, HLNode(1, 0): 1}), LAM)
    assert_same_value(_sorted_weight([((1, 2), 2), ((0, 1), 1)]), LAM)
    assert_same_value(M3.raising(M3.lowering(LAM, 1, 0), 1, 0), LAM)
    assert_same_value(M3.to_weight(M3.to_extended(LAM)), LAM)

    assert_same_value(LATTICE.alpha(1) - LATTICE.alpha(2) - LATTICE.alpha(2), V)
    assert_same_value(-(-V), V)
    assert_same_value(V + LATTICE.zero(), V)
    assert_same_value(from_coeffs(LATTICE, [1, -2, 0]), V)


def test_repr_is_unchanged():
    assert repr(M) == "Multisegment(mults=(0, 0, 1, 2))"
    assert repr(C) == "ExtElement(slots=((1, Multisegment(mults=(1,))), (0, Multisegment(mults=(0, 0, 0, 0, 1)))))"
    assert repr(LAM) == "HLWeight(terms=((HLNode(i=1, a=0), 1), (HLNode(i=2, a=1), 2)))"
    assert repr(V) == "RootLatticeElem(coeffs=(1, -2, 0))"
    assert repr(SEG) == "Segment(a=2, b=5)"
    assert (repr(EMPTY), repr(HIGHEST), repr(ZERO_WEIGHT)) == (
        "Multisegment(mults=())",
        "ExtElement(slots=())",
        "HLWeight(terms=())",
    )


def test_segment_is_the_pair_of_its_endpoints():
    assert (SEG.a, SEG.b, SEG.height, str(SEG), str(Segment(3, 3))) == (2, 5, 4, "[2,5]", "[3]")
    assert_same_value(pickle.loads(pickle.dumps(SEG)), SEG)
    assert_same_value(M3.segment_of_node(HLNode(2, 1))[0], Segment(1, 2))
    for a, b, message in (
        (0, 1, "invalid segment [0,1]: need 1 <= a <= b"),
        (3, 2, "invalid segment [3,2]: need 1 <= a <= b"),
        (1.0, 2, "segment endpoints must be integers, got [1.0,2]"),
        ("1", 2, "segment endpoints must be integers, got ['1',2]"),
    ):
        with pytest.raises(ValueError) as err:
            Segment(a, b)
        assert str(err.value) == message
