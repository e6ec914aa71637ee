"""Tests for slot-indexed elements and the generic extended crystal operators."""

import itertools
import json
import random

import pytest

from extcrystal.crystal import AbstractCrystal
from extcrystal.enumeration import (
    count_ext_elements,
    iter_ext_elements,
    random_ext_element,
)
from extcrystal.exploration import explore
from extcrystal.extended import (
    HIGHEST,
    ExtElement,
    ExtendedCrystal,
    format_ext_element,
    parse_ext_element,
)
from extcrystal.msegment import EMPTY, MultisegmentCrystal, parse_multisegment
from extcrystal.parsing import ParseError
from extcrystal.sl2 import Sl2Crystal
from extcrystal.verify import SweepConfig
from support import coeff, from_coeffs

EXT3 = ExtendedCrystal(MultisegmentCrystal(3))
EXT1 = ExtendedCrystal(MultisegmentCrystal(1))

# Mixed element used across the frozen checks; all images below were worked
# out by hand from the slot counters before being frozen.
MIXED_TEXT = "1:[1,2];0:[2],[1];-1:2*[2,3]"


def mixed():
    return parse_ext_element(MIXED_TEXT, EXT3)


def test_parse_highest_forms():
    assert parse_ext_element("", EXT3) == HIGHEST
    assert parse_ext_element("1", EXT3) == HIGHEST
    assert format_ext_element(HIGHEST) == "1"
    assert HIGHEST.is_highest()
    assert HIGHEST.support() == ()


def test_parse_format_round_trip_fixed():
    for text in ("1", "0:[1]", "2:[3],[1,2];-1:2*[1]", MIXED_TEXT):
        assert format_ext_element(parse_ext_element(text, EXT3)) == text


def test_parse_rejects_malformed():
    for bad in ("x:[1]", "0[1]", "0:[1];0:[2]", "0:[zz]"):
        with pytest.raises(ParseError):
            parse_ext_element(bad, EXT3)
    # an empty slot body is legal and normalizes away
    assert parse_ext_element("0:", EXT3) == HIGHEST


def test_slots_are_sorted_descending():
    c = mixed()
    assert [k for k, _b in c.slots] == [1, 0, -1]
    assert c.support() == (1, 0, -1)
    assert c.slot(0) == parse_multisegment("[2],[1]")
    assert c.slot(5) is None
    assert c.slot(5, EMPTY) == EMPTY


def test_element_drops_empty_slots():
    assert EXT3.element({}) == HIGHEST
    assert EXT3.element({0: EMPTY}) == HIGHEST
    c = EXT3.element({2: parse_multisegment("[1]"), 0: EMPTY})
    assert c.support() == (2,)


def test_constructor_drops_highest_entries_for_both_realizations():
    # the highest element is the only falsy one: EMPTY here, 0 for Sl2Crystal
    ext2 = ExtendedCrystal(MultisegmentCrystal(2))
    c = ExtElement([(0, EMPTY)])
    assert c == HIGHEST and c.is_highest() and format_ext_element(c) == "1"
    assert format_ext_element(ext2.raising(c, 1, 0)) == "1:[1]"
    mixed_slots = ExtElement([(-1, EMPTY), (2, parse_multisegment("[1]")), (0, EMPTY)])
    assert mixed_slots == ExtElement([(2, parse_multisegment("[1]"))]) and mixed_slots.support() == (2,)
    sl2 = ExtendedCrystal(Sl2Crystal())
    d = ExtElement([(1, 0), (0, 2), (-3, 0)])
    assert d == sl2.element({0: 2}) and d.support() == (0,) and format_ext_element(d) == "0:2"
    assert ExtElement([(5, 0)]) == HIGHEST and format_ext_element(sl2.lowering(ExtElement([(0, 0)]), 1, 0)) == "0:1"
    with pytest.raises(ValueError):
        ExtElement([(0, EMPTY), (0, parse_multisegment("[1]"))])


def test_constructor_refuses_a_slot_index_that_is_not_an_int():
    one = parse_multisegment("[1]")
    for bad in (0.5, True, False, "0", None):
        for build in (lambda: ExtElement([(bad, one)]), lambda: EXT3.element({bad: one})):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"slot index must be an integer, got {bad!r}"
    assert ExtElement([(-(10**20), one)]).support() == (-(10**20),)


def test_inject_places_content_at_slot():
    m = parse_multisegment("[1,2]")
    assert format_ext_element(EXT3.inject(m)) == "0:[1,2]"
    assert format_ext_element(EXT3.inject(m, -2)) == "-2:[1,2]"
    assert EXT3.inject(EMPTY, 3) == HIGHEST


def test_slot_accessor_defaults_to_highest_content():
    c = mixed()
    assert EXT3.slot(c, 1) == parse_multisegment("[1,2]")
    assert EXT3.slot(c, 7) == EMPTY


def test_branch_selector_hand_values():
    c = mixed()
    expected = {(1, 0): 0, (1, 1): 1, (2, -1): 2, (2, 0): 0, (3, 1): 0}
    for (i, k), sel in expected.items():
        assert EXT3.branch_selector(c, i, k) == sel


def test_branch_selector_definition():
    rng = random.Random(5)
    crystal = EXT3.crystal
    for _ in range(80):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        for i in (1, 2, 3):
            for k in (-2, -1, 0, 1):
                want = crystal.epsilon(EXT3.slot(c, k), i) - crystal.epsilon_star(EXT3.slot(c, k + 1), i)
                assert EXT3.branch_selector(c, i, k) == want
                assert EXT3.star_branch_selector(c, i, k) == -EXT3.branch_selector(c, i, k - 1)


def test_lowering_hand_values():
    c = mixed()
    cases = {
        (1, 0): "1:[1,2];0:[2],2*[1];-1:2*[2,3]",
        (1, 1): "1:[1,2],[1];0:[2],[1];-1:2*[2,3]",
        (2, -1): "1:[1,2];0:[2],[1];-1:2*[2,3],[2]",
        (2, 0): "1:[1,2];0:2*[2],[1];-1:2*[2,3]",
        (3, 1): "1:[3],[1,2];0:[2],[1];-1:2*[2,3]",
    }
    for (i, k), out in cases.items():
        assert format_ext_element(EXT3.lowering(c, i, k)) == out


def test_raising_hand_values():
    c = mixed()
    cases = {
        (1, 0): "1:[1,2],[1];0:[2],[1];-1:2*[2,3]",
        (1, 1): "1:[2];0:[2],[1];-1:2*[2,3]",
        (2, -1): "1:[1,2];0:[2],[1];-1:[2,3],[3]",
        (2, 0): "1:[1,2],[2];0:[2],[1];-1:2*[2,3]",
        (3, 1): "2:[3];1:[1,2];0:[2],[1];-1:2*[2,3]",
    }
    for (i, k), out in cases.items():
        assert format_ext_element(EXT3.raising(c, i, k)) == out


def test_operators_on_highest():
    assert format_ext_element(EXT3.lowering(HIGHEST, 1, 0)) == "0:[1]"
    assert format_ext_element(EXT3.lowering(HIGHEST, 2, -1)) == "-1:[2]"
    # raising is total: on the highest element it feeds the next slot up
    assert format_ext_element(EXT3.raising(HIGHEST, 1, 0)) == "1:[1]"
    assert format_ext_element(EXT1.raising(HIGHEST, 1, 5)) == "6:[1]"


def test_inverse_pairs_exhaustive_small():
    for c in iter_ext_elements(EXT1, (-1, 1), 3):
        for k in (-2, -1, 0, 1):
            f = EXT1.lowering(c, 1, k)
            assert EXT1.raising(f, 1, k) == c
            e = EXT1.raising(c, 1, k)
            assert EXT1.lowering(e, 1, k) == c
            sf = EXT1.star_lowering(c, 1, k)
            assert EXT1.star_raising(sf, 1, k) == c
            se = EXT1.star_raising(c, 1, k)
            assert EXT1.star_lowering(se, 1, k) == c


def test_slot_counters_read_single_slots():
    c = mixed()
    crystal = EXT3.crystal
    for k in (-1, 0, 1, 3):
        for i in (1, 2, 3):
            assert EXT3.epsilon(c, i, k) == crystal.epsilon(EXT3.slot(c, k), i)
            assert EXT3.epsilon_star(c, i, k) == crystal.epsilon_star(EXT3.slot(c, k), i)


def test_weight_alternates_over_slots():
    lat = EXT3.lattice
    assert EXT3.weight(mixed()) == from_coeffs(lat, [0, 2, 2])
    assert EXT3.weight(HIGHEST) == lat.zero()
    rng = random.Random(7)
    for _ in range(60):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        total = lat.zero()
        for k, b in c.slots:
            w = EXT3.crystal.weight(b)
            total = total - w if k % 2 else total + w
        assert EXT3.weight(c) == total


def test_weight_steps_depend_on_branch():
    rng = random.Random(9)
    lat = EXT3.lattice
    for _ in range(60):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        for i in (1, 2, 3):
            for k in (-2, -1, 0, 1):
                step = lat.alpha(i) if k % 2 else lat.zero() - lat.alpha(i)
                assert EXT3.weight(EXT3.lowering(c, i, k)) == EXT3.weight(c) + step
                assert EXT3.weight(EXT3.raising(c, i, k)) == EXT3.weight(c) - step


def test_star_identities():
    rng = random.Random(13)
    for _ in range(60):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        for i in (1, 2, 3):
            for k in (-1, 0, 1):
                assert EXT3.star_lowering(c, i, k) == EXT3.raising(c, i, k - 1)
                assert EXT3.star_raising(c, i, k) == EXT3.lowering(c, i, k - 1)


def test_star_flip_hand_value():
    flipped = EXT3.star_flip(mixed())
    assert format_ext_element(flipped) == "1:2*[3],2*[2];0:[1,2];-1:[2],[1]"


def test_star_flip_involution_and_conjugation():
    rng = random.Random(17)
    for _ in range(60):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        assert EXT3.star_flip(EXT3.star_flip(c)) == c
        assert EXT3.weight(EXT3.star_flip(c)) == EXT3.weight(c)
        for i in (1, 2):
            for k in (-1, 0, 1):
                lhs = EXT3.star_lowering(c, i, k)
                rhs = EXT3.star_flip(EXT3.lowering(EXT3.star_flip(c), i, -k))
                assert lhs == rhs


def test_shift_hand_value_and_additivity():
    c = mixed()
    assert format_ext_element(EXT3.shift(c, 2)) == "3:[1,2];2:[2],[1];1:2*[2,3]"
    assert EXT3.shift(c, 0) == c
    assert EXT3.shift(EXT3.shift(c, 3), -3) == c
    assert EXT3.shift(EXT3.shift(c, 1), 1) == EXT3.shift(c, 2)
    assert EXT3.shift(HIGHEST, 4) == HIGHEST


def test_shift_commutes_with_operators():
    rng = random.Random(19)
    for _ in range(50):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        for i in (1, 2, 3):
            for k in (-1, 0, 1):
                for t in (-2, 1):
                    assert EXT3.shift(EXT3.lowering(c, i, k), t) == EXT3.lowering(EXT3.shift(c, t), i, k + t)
                    assert EXT3.shift(EXT3.raising(c, i, k), t) == EXT3.raising(EXT3.shift(c, t), i, k + t)


def test_total_height():
    assert EXT3.total_height(mixed()) == 8
    assert EXT3.total_height(HIGHEST) == 0


def test_path_to_highest_replays():
    c = mixed()
    path = EXT3.path_to_highest(c)
    assert path == [(1, 1), (2, 1), (2, 0), (1, 0), (2, -1), (2, -1), (3, -1), (3, -1)]
    cur = c
    for i, k in path:
        cur = EXT3.raising(cur, i, k)
    assert cur == HIGHEST
    assert EXT3.path_to_highest(HIGHEST) == []


def test_path_to_highest_random():
    rng = random.Random(29)
    for _ in range(40):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        cur = c
        for i, k in EXT3.path_to_highest(c):
            cur = EXT3.raising(cur, i, k)
        assert cur == HIGHEST


def test_path_to_highest_stops_after_total_height(monkeypatch):
    # a raise that never moves would walk forever; the path is cut at the
    # total height, 8 here
    monkeypatch.setattr(ExtendedCrystal, "raising", lambda self, c, i, k: c)
    with pytest.raises(AssertionError, match="not highest after 8 raises"):
        EXT3.path_to_highest(mixed())


def test_enumeration_counts_frozen():
    # anchors computed once by the brute-force enumerator and kept as
    # regression values
    assert count_ext_elements(1, (0, 1), 2) == 6
    assert count_ext_elements(1, (-1, 1), 3) == 20
    assert count_ext_elements(2, (-2, 2), 4) == 1346
    assert count_ext_elements(3, (-2, 2), 4) == 5371


def test_size_oracle_and_enumerator_refuse_the_same_bad_bounds():
    for window, max_ht, message in (
        ((1, 0), 3, "^empty slot window 1..0$"),
        ((0, 0), -1, "^height bound must be non-negative$"),
    ):
        with pytest.raises(ValueError, match=message):
            count_ext_elements(2, window, max_ht)
        with pytest.raises(ValueError, match=message):
            list(iter_ext_elements(EXT1, window, max_ht))
        with pytest.raises(ValueError, match=message):
            explore(EXT1, HIGHEST, window, max_ht)
        with pytest.raises(ValueError, match=message):
            SweepConfig(n=1, window=window, max_ht=max_ht)
    assert count_ext_elements(2, (0, 0), 0) == len(list(iter_ext_elements(EXT1, (0, 0), 0))) == 1


def test_enumeration_yields_unique_admissible_elements():
    seen = set()
    for c in iter_ext_elements(EXT1, (-1, 1), 3):
        assert c not in seen
        seen.add(c)
        assert EXT1.total_height(c) <= 3
        assert all(-1 <= k <= 1 for k in c.support())
    assert len(seen) == count_ext_elements(1, (-1, 1), 3)


def test_enumeration_order_is_frozen():
    # the lowest slot varies slowest; each slot runs through its entries by height
    texts = [format_ext_element(c) for c in iter_ext_elements(EXT1, (0, 1), 2)]
    assert texts == ["1", "1:[1]", "1:2*[1]", "0:[1]", "1:[1];0:[1]", "0:2*[1]"]


def test_explore_matches_enumeration():
    graph = explore(EXT1, HIGHEST, (0, 1), 2)
    assert len(graph.nodes) == 6
    texts = sorted(format_ext_element(c) for c in graph.nodes)
    assert texts == ["0:2*[1]", "0:[1]", "1", "1:2*[1]", "1:[1]", "1:[1];0:[1]"]
    for src, dst, i, k in graph.edges:
        assert EXT1.lowering(graph.nodes[src], i, k) == graph.nodes[dst]


def test_operator_results_are_canonical():
    # operators splice their result into the slots; it must equal a validated rebuild
    ext = ExtendedCrystal(MultisegmentCrystal(2))
    graph = explore(ext, HIGHEST, (-1, 1), 3)
    for c in graph.nodes:
        for i in (1, 2):
            for k in range(-2, 3):
                for op in (ext.lowering, ext.raising, ext.star_lowering, ext.star_raising):
                    got = op(c, i, k)
                    rebuilt = ExtElement(got.slots)
                    assert got == rebuilt and hash(got) == hash(rebuilt)
                    assert EMPTY not in (b for _, b in got.slots)


def test_sl2_crystal_is_a_single_string():
    s = Sl2Crystal()
    assert s.highest == 0
    assert s.lowering(2, 1) == 3
    assert s.raising(0, 1) is None
    assert s.raising(3, 1) == 2
    assert s.epsilon(4, 1) == 4
    assert s.epsilon_star(4, 1) == 4
    assert s.star(4) == 4
    assert coeff(s.weight(3), 1) == -3


def test_sl2_extended_branch_rule():
    # over the one-string crystal the generic operators reduce to a
    # two-slot comparison: lower at k when m_k >= m_{k+1}, otherwise
    # star-lower at k+1, which adds one either way
    ext = ExtendedCrystal(Sl2Crystal())
    rng = random.Random(37)
    for _ in range(200):
        slots = {k: rng.randint(0, 4) for k in range(-2, 3)}
        c = ext.element({k: v for k, v in slots.items() if v})
        for k in range(-2, 2):
            m_here = slots.get(k, 0)
            m_up = slots.get(k + 1, 0)
            want = dict(slots)
            if m_here >= m_up:
                want[k] = m_here + 1
            else:
                want[k + 1] = m_up - 1
            got = ext.lowering(c, 1, k)
            assert got == ext.element({kk: v for kk, v in want.items() if v})


def _definitional(ext, name, c, i, k):
    """The extended operator `name` along (i, k), spelled out from the public
    slot counters and the base operators, rebuilt through ext.element."""
    cry = ext.crystal
    slots = dict(c.slots)

    def put(t, b):
        assert b is not None, f"{name} annihilated slot {t}"
        return ext.element({**slots, t: b})

    b, above, below = ext.slot(c, k), ext.slot(c, k + 1), ext.slot(c, k - 1)
    if name == "lowering":
        if cry.epsilon(b, i) >= cry.epsilon_star(above, i):
            return put(k, cry.lowering(b, i))
        return put(k + 1, cry.star_raising(above, i))
    if name == "raising":
        if cry.epsilon(b, i) > cry.epsilon_star(above, i):
            return put(k, cry.raising(b, i))
        return put(k + 1, cry.star_lowering(above, i))
    if name == "star_lowering":
        if cry.epsilon_star(b, i) >= cry.epsilon(below, i):
            return put(k, cry.star_lowering(b, i))
        return put(k - 1, cry.raising(below, i))
    assert name == "star_raising"
    if cry.epsilon_star(b, i) > cry.epsilon(below, i):
        return put(k, cry.star_raising(b, i))
    return put(k - 1, cry.lowering(below, i))


def _assert_fused_operators_are_definitional(ext, elems, window):
    names = ("lowering", "raising", "star_lowering", "star_raising")
    seen = 0
    for c in elems:
        for k in range(window[0] - 1, window[1] + 2):
            for i in ext.crystal.indices():
                for name in names:
                    got = getattr(ext, name)(c, i, k)
                    assert got == _definitional(ext, name, c, i, k), (name, i, k, format_ext_element(c))
                    seen += 1
    assert seen


def test_fused_operators_equal_their_definition_exhaustive():
    # every element of the two windows, every (i, k) touching them, all four operators
    for n, window, max_ht in ((2, (-2, 2), 3), (3, (-1, 1), 2)):
        ext = ExtendedCrystal(MultisegmentCrystal(n))
        elems = list(iter_ext_elements(ext, window, max_ht))
        assert len(elems) == count_ext_elements(n, window, max_ht)
        _assert_fused_operators_are_definitional(ext, elems, window)


def test_text_forms_of_rank_one_elements():
    # each slot is written by its element's own str: an Sl2Crystal slot is its count
    ext = ExtendedCrystal(Sl2Crystal())
    c = ext.lowering(ext.lowering(ext.lowering(HIGHEST, 1, 0), 1, 1), 1, 0)
    assert format_ext_element(c) == "1:1;0:2"
    graph = explore(ext, HIGHEST, (0, 1), 2)
    assert [format_ext_element(d) for d in graph.nodes] == ["1", "0:1", "1:1", "0:2", "1:1;0:1", "1:2"]
    assert [node["slots"] for node in json.loads(graph.to_json())["nodes"]][-2:] == [{"1": "1", "0": "1"}, {"1": "2"}]


def test_fused_operators_default_reads_on_rank_one():
    # Sl2Crystal's read is the bare count, which both of its moves ignore
    ext = ExtendedCrystal(Sl2Crystal())
    window = (-2, 2)
    slots = range(window[0], window[1] + 1)
    elems = [
        ext.element(dict(zip(slots, counts)))
        for counts in itertools.product(range(4), repeat=len(slots))
        if sum(counts) <= 3
    ]
    _assert_fused_operators_are_definitional(ext, elems, window)


def test_no_realization_re_forks_the_derived_operators():
    # a realization gives read, lower_with and raise_with; the six operators are AbstractCrystal's
    derived = ("lowering", "raising", "star_lowering", "star_raising", "epsilon", "epsilon_star")
    removed = ("plain_read", "star_read", "star_lower_with", "star_raise_with")
    for cls in (MultisegmentCrystal, Sl2Crystal):
        assert {"read", "lower_with", "raise_with"} <= set(vars(cls)), cls
        assert not set(vars(cls)) & {*derived, *removed}, cls


def test_operators_and_shift_refuse_a_slot_index_that_is_not_an_int():
    one = parse_ext_element("0:[1]", EXT3)
    names = ("lowering", "raising", "star_lowering", "star_raising")
    for bad in (0.5, True, False, "0", None):
        calls = [lambda name=name: getattr(EXT3, name)(c, 1, bad) for name in names for c in (HIGHEST, one)]
        for call in calls + [lambda: EXT3.shift(one, bad), lambda: EXT3.shift(HIGHEST, bad)]:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"slot index must be an integer, got {bad!r}"
    assert EXT3.shift(one, -(10**20)).support() == (-(10**20),)
    assert format_ext_element(EXT3.star_raising(HIGHEST, 1, 1)) == "0:[1]"


class _Counting(AbstractCrystal):
    """A realization that delegates to another and logs every read and move asked of it."""

    def __init__(self, inner):
        self.inner, self.n, self.lattice, self.log = inner, inner.n, inner.lattice, []

    @property
    def highest(self):
        return self.inner.highest

    def validate(self, b):
        self.inner.validate(b)

    def read(self, b, i, starred):
        self.log.append(("read", b, starred))
        return self.inner.read(b, i, starred)

    def lower_with(self, b, read):
        self.log.append(("move", b, read))
        return self.inner.lower_with(b, read)

    def raise_with(self, b, read):
        self.log.append(("move", b, read))
        return self.inner.raise_with(b, read)


def test_each_extended_operator_reads_each_slot_at_most_once_and_moves_once():
    window = (-1, 1)
    slots = range(window[0], window[1] + 1)
    rank_one = [dict(zip(slots, counts)) for counts in itertools.product(range(3), repeat=3) if sum(counts) <= 2]
    rank_three = [dict(c) for c in iter_ext_elements(ExtendedCrystal(MultisegmentCrystal(3)), window, 2)]
    for inner, mappings in ((MultisegmentCrystal(3), rank_three), (Sl2Crystal(), rank_one)):
        counting = _Counting(inner)
        ext, plain_ext = ExtendedCrystal(counting), ExtendedCrystal(inner)
        calls = 0
        for c in map(ext.element, mappings):
            for i, k, name in itertools.product(inner.indices(), range(-2, 2), ("lowering", "raising")):
                for op, low in ((name, k), (f"star_{name}", k - 1)):
                    counting.log.clear()
                    assert getattr(ext, op)(c, i, k) == getattr(plain_ext, op)(c, i, k)
                    reads = [entry for entry in counting.log if entry[0] == "read"]
                    moves = [entry for entry in counting.log if entry[0] == "move"]
                    assert len(reads) <= 2 and len(moves) == 1, (op, i, k, c, counting.log)
                    # slot low is read plainly and slot low + 1 starred, each at most once
                    for starred, slot in ((False, low), (True, low + 1)):
                        slot_reads = [b for _, b, s in reads if s is starred]
                        assert slot_reads in ([], [ext.slot(c, slot)]), (op, i, k, c, counting.log)
                    calls += 1
        assert calls == len(mappings) * inner.n * 4 * 4
