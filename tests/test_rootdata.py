"""Tests for the type A Cartan matrix and root lattice arithmetic."""

import pytest

from extcrystal.rootdata import CartanA, RootLattice, check_rank
from support import coeff, from_coeffs


def test_cartan_entries_rank_3():
    c = CartanA(3)
    expected = {
        (1, 1): 2, (1, 2): -1, (1, 3): 0,
        (2, 1): -1, (2, 2): 2, (2, 3): -1,
        (3, 1): 0, (3, 2): -1, (3, 3): 2,
    }
    for (i, j), value in expected.items():
        assert c.entry(i, j) == value


def test_cartan_entries_rank_1():
    assert CartanA(1).entry(1, 1) == 2


def test_cartan_symmetry():
    c = CartanA(5)
    for i in range(1, 6):
        for j in range(1, 6):
            assert c.entry(i, j) == c.entry(j, i)


def test_cartan_rejects_out_of_range_index():
    c = CartanA(2)
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 3), (-1, 2)):
        with pytest.raises(ValueError):
            c.entry(i, j)


def test_check_rank_rejects_nonpositive():
    for bad in (0, -1, -5):
        with pytest.raises(ValueError):
            check_rank(bad)
    check_rank(1)
    check_rank(7)


def test_alpha_coefficients():
    lat = RootLattice(3)
    a2 = lat.alpha(2)
    assert [coeff(a2, j) for j in (1, 2, 3)] == [0, 1, 0]
    assert a2.height() == 1
    assert not a2.is_zero()


def test_pairing_reproduces_cartan_matrix():
    lat = RootLattice(4)
    c = CartanA(4)
    for i in range(1, 5):
        for j in range(1, 5):
            assert lat.pair(i, lat.alpha(j)) == c.entry(i, j)


def test_pairing_is_linear():
    lat = RootLattice(3)
    v = from_coeffs(lat, [2, -1, 3])
    w = from_coeffs(lat, [0, 4, -2])
    for i in (1, 2, 3):
        assert lat.pair(i, v + w) == lat.pair(i, v) + lat.pair(i, w)
        assert lat.pair(i, v - w) == lat.pair(i, v) - lat.pair(i, w)


def test_from_coeffs_round_trip():
    lat = RootLattice(3)
    v = from_coeffs(lat, [5, 0, -2])
    assert [coeff(v, j) for j in (1, 2, 3)] == [5, 0, -2]
    assert v.height() == 3
    assert v.rank == 3


def test_zero_element():
    lat = RootLattice(2)
    z = lat.zero()
    assert z.is_zero()
    assert z.height() == 0
    v = lat.alpha(1)
    assert v + z == v
    assert v - v == z


def test_elem_arithmetic_and_equality():
    lat = RootLattice(2)
    v = lat.alpha(1) + lat.alpha(1) + lat.alpha(2)
    assert [coeff(v, j) for j in (1, 2)] == [2, 1]
    assert v == from_coeffs(lat, [2, 1])
    assert v != from_coeffs(lat, [1, 2])
    assert hash(v) == hash(from_coeffs(lat, [2, 1]))


def test_coeff_out_of_range_is_rejected():
    lat = RootLattice(2)
    v = lat.alpha(1)
    with pytest.raises(ValueError):
        coeff(v, 3)
    with pytest.raises(ValueError):
        lat.alpha(0)
