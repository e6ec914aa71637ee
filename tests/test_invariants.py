"""Tests for the closed-form pairing counters on extended elements."""

import random

from extcrystal.enumeration import count_ext_elements, iter_ext_elements, random_ext_element
from extcrystal.extended import ExtendedCrystal, format_ext_element, parse_ext_element
from extcrystal.invariants import d_invariant, lambda_left, lambda_right
from extcrystal.msegment import MultisegmentCrystal, parse_multisegment
from extcrystal.rootdata import CartanA
from support import slot_weight

EXT3 = ExtendedCrystal(MultisegmentCrystal(3))


def generator(ext, i, k=0):
    return ext.inject(parse_multisegment(f"[{i}]"), k)


def test_self_pairing_is_indicator_of_adjacent_slots():
    # d at (i, k) against a single generator box in slot 0 picks out the
    # two neighboring slot offsets and nothing else
    for n in (1, 2, 3, 4):
        ext = ExtendedCrystal(MultisegmentCrystal(n))
        for i in range(1, n + 1):
            c = generator(ext, i)
            for k in range(-5, 6):
                want = 1 if k in (-1, 1) else 0
                assert d_invariant(ext, c, i, k) == want


def test_cross_pairing_at_zero_is_minus_cartan_entry():
    for n in (2, 3, 4):
        ext = ExtendedCrystal(MultisegmentCrystal(n))
        cartan = CartanA(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                c = generator(ext, j)
                assert d_invariant(ext, c, i, 0) == -cartan.entry(i, j)
                for k in (-3, -2, -1, 1, 2, 3):
                    assert d_invariant(ext, c, i, k) == 0


def test_hand_evaluated_pairs():
    L = generator(EXT3, 1)
    assert (lambda_left(EXT3, L, 1, 1), lambda_right(EXT3, L, 1, 1)) == (2, 0)
    assert d_invariant(EXT3, L, 1, 1) == 1
    c = parse_ext_element("1:[1,2];0:[2],[1];-1:2*[2,3]", EXT3)
    assert (lambda_left(EXT3, c, 2, 0), lambda_right(EXT3, c, 2, 0)) == (2, 2)
    assert d_invariant(EXT3, c, 2, 0) == 2


def test_left_plus_right_is_twice_d_random():
    rng = random.Random(101)
    for _ in range(500):
        c = random_ext_element(rng, EXT3, (-3, 3), 6)
        i = rng.randint(1, 3)
        k = rng.randint(-4, 4)
        left = lambda_left(EXT3, c, i, k)
        right = lambda_right(EXT3, c, i, k)
        assert left + right == 2 * d_invariant(EXT3, c, i, k)


def test_invariants_are_shift_covariant():
    # moving the element and the probe slot together changes nothing
    c = parse_ext_element("1:[1,2];0:[2],[1];-1:2*[2,3]", EXT3)
    orbit = [
        (
            lambda_left(EXT3, EXT3.shift(c, t), 2, t),
            lambda_right(EXT3, EXT3.shift(c, t), 2, t),
            d_invariant(EXT3, EXT3.shift(c, t), 2, t),
        )
        for t in range(-3, 4)
    ]
    assert orbit == [(2, 2, 2)] * 7


def test_invariants_are_shift_covariant_random():
    rng = random.Random(103)
    for _ in range(120):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        i = rng.randint(1, 3)
        k = rng.randint(-3, 3)
        base = (
            lambda_left(EXT3, c, i, k),
            lambda_right(EXT3, c, i, k),
            d_invariant(EXT3, c, i, k),
        )
        for t in (-2, 1, 3):
            moved = EXT3.shift(c, t)
            assert (
                lambda_left(EXT3, moved, i, k + t),
                lambda_right(EXT3, moved, i, k + t),
                d_invariant(EXT3, moved, i, k + t),
            ) == base


def test_invariants_on_highest_element():
    from extcrystal.extended import HIGHEST

    for i in (1, 2, 3):
        for k in (-2, 0, 2):
            assert lambda_left(EXT3, HIGHEST, i, k) == 0
            assert lambda_right(EXT3, HIGHEST, i, k) == 0
            assert d_invariant(EXT3, HIGHEST, i, k) == 0


def test_counters_feed_the_maxima():
    # the left form starts from the larger of the two raising counters that
    # meet at the probe slot; spot-check the pieces on a fixed element
    c = parse_ext_element("0:2*[1]", EXT3)
    #   slot 0 holds two generator boxes for color 1
    assert EXT3.epsilon(c, 1, 0) == 2
    assert EXT3.epsilon_star(c, 1, 0) == 2
    assert lambda_left(EXT3, c, 1, 0) == 2 * 2 + (-4)
    assert lambda_right(EXT3, c, 1, 0) == 2 * 2 + (-4)
    assert d_invariant(EXT3, c, 1, 0) == 2 + 2 + (-4)


def test_closed_forms_match_the_docstring_with_the_extended_sign():
    # lambda_left, lambda_right and d evaluated as the module docstring writes
    # them, with rel(t) = (-1)^k <alpha_i, slot_weight(c, t)>: slot_weight
    # carries the extended layer's own sign (-1)^t, so rel(t) is
    # (-1)^(t - k) <alpha_i, w_t> without restating that sign here
    n, window, max_ht = 2, (-1, 1), 3
    ext = ExtendedCrystal(MultisegmentCrystal(n))
    pair = ext.lattice.pair
    elems = list(iter_ext_elements(ext, window, max_ht))
    assert len(elems) == count_ext_elements(n, window, max_ht)
    for c in elems:
        for k in range(window[0] - 1, window[1] + 2):
            for i in range(1, n + 1):
                x, r = ext.epsilon_star(c, i, k + 1), ext.epsilon(c, i, k)
                s, y = ext.epsilon_star(c, i, k), ext.epsilon(c, i, k - 1)
                rel = {t: (-1) ** (k % 2) * pair(i, slot_weight(ext, c, t)) for t in c.support()}
                left = 2 * max(x, r) + sum(-v if t > k else v for t, v in rel.items())
                right = 2 * max(y, s) + sum(-v if t < k else v for t, v in rel.items())
                d = max(x, r) + max(y, s) + rel.get(k, 0)
                at = (format_ext_element(c), i, k)
                assert lambda_left(ext, c, i, k) == left, at
                assert lambda_right(ext, c, i, k) == right, at
                assert d_invariant(ext, c, i, k) == d, at
