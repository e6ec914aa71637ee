"""Tests for segments, multisegments, and the multisegment crystal operators."""

import random
from collections import Counter

import pytest

from extcrystal.enumeration import iter_multisegments, random_ext_element, random_multisegment
from extcrystal.extended import ExtendedCrystal
from extcrystal.msegment import (
    EMPTY,
    Multisegment,
    MultisegmentCrystal,
    Segment,
    format_multisegment,
    parse_multisegment,
)
from extcrystal.parsing import ParseError
from extcrystal.signature import expand
from extcrystal.verify import cancel_in_random_order
from support import add, counts, from_coeffs, replace_one, segments

C3 = MultisegmentCrystal(3)

# One mixed element used by several frozen checks below; every value was
# worked out by hand from the signature rule before being frozen here.
MIXED = parse_multisegment("[2,3],[1,2],[1]")


def phi(crystal, b, i):
    """phi_i(b) = epsilon_i(b) + <h_i, wt(b)>."""
    return crystal.epsilon(b, i) + crystal.lattice.pair(i, crystal.weight(b))


def test_segment_basics():
    s = Segment(2, 5)
    assert (s.a, s.b) == (2, 5)
    assert s.height == 4
    assert Segment(3, 3).height == 1


def test_segment_rejects_bad_bounds():
    for a, b in ((3, 1), (0, 2), (-1, -1), (2, 0)):
        with pytest.raises(ValueError):
            Segment(a, b)


def test_storage_order_is_canonical():
    m = Multisegment(segments=(Segment(1, 1), Segment(1, 2), Segment(3, 3), Segment(2, 3)))
    # descending in (end, -start): [2,3] before [3,3]? no: [3] has end 3 and
    # larger start, so [2,3] sorts first only by start tiebreak; hand order:
    #   [2,3] (3,-2) > [3] (3,-3) > [1,2] (2,-1) > [1] (1,-1)
    assert segments(m) == (Segment(2, 3), Segment(3, 3), Segment(1, 2), Segment(1, 1))


def test_counts_groups_repeats():
    m = parse_multisegment("2*[1],[1,2]")
    assert counts(m) == [(Segment(1, 2), 1), (Segment(1, 1), 2)]
    assert m.height() == 4
    assert not m.is_empty()
    assert EMPTY.is_empty()


def test_multisegment_is_not_iterable():
    # iterating would give one Segment per unit of multiplicity, so pytest's
    # report of a failing == between two such multisegments would exhaust memory
    with pytest.raises(TypeError):
        iter(parse_multisegment("2*[1,2],[3]"))


def test_add_and_replace_one():
    m = parse_multisegment("[1,2]")
    grown = add(m, Segment(1, 1))
    assert format_multisegment(grown) == "[1,2],[1]"
    swapped = replace_one(grown, Segment(1, 2), Segment(2, 2))
    assert format_multisegment(swapped) == "[2],[1]"
    dropped = replace_one(grown, Segment(1, 1), None)
    assert dropped == m
    with pytest.raises(ValueError):
        replace_one(m, Segment(3, 3), None)


def test_format_empty_is_unit_symbol():
    assert format_multisegment(EMPTY) == "1"
    assert parse_multisegment("1") == EMPTY
    assert parse_multisegment("") == EMPTY


def test_parse_format_round_trip_fixed():
    for text in ("1", "[1]", "2*[1]", "[2,3],[1,2],[1]", "[3],[1,2]", "3*[2,5]"):
        assert format_multisegment(parse_multisegment(text)) == text


def test_parse_accepts_any_order_and_canonicalizes():
    assert format_multisegment(parse_multisegment("[1],[1,2],[2,3]")) == "[2,3],[1,2],[1]"
    assert format_multisegment(parse_multisegment("[1],[1]")) == "2*[1]"


def test_parse_errors_carry_position():
    for bad in ("[2,", "[a]", "[1,2", "2*", "[2,1]", "[]"):
        with pytest.raises(ParseError):
            parse_multisegment(bad)
    try:
        parse_multisegment("[1],[x]")
    except ParseError as err:
        assert "position" in str(err)
    for bad, pos in (("0*[1]", 0), ("[1], 0*[2]", 5)):
        with pytest.raises(ParseError, match="multiplicity must be at least 1") as err:
            parse_multisegment(bad)
        assert err.value.pos == pos


def test_rank_free_parser_refuses_a_segment_past_the_largest_rank():
    # a multiplicity list up to the segment's position would grow with the
    # square of its end: [59048] alone ran out of memory
    assert len(parse_multisegment("[64]")) == 2080
    for text, pos, seg in (
        ("[65]", 0, "[65]"),
        ("[99999999999999999999]", 0, "[99999999999999999999]"),
        ("[1],3*[2,70]", 6, "[2,70]"),
    ):
        with pytest.raises(ParseError) as err:
            parse_multisegment(text)
        assert (err.value.pos, err.value.message) == (pos, f"segment {seg} does not fit inside rank 64")


def test_parse_format_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        m = random_multisegment(rng, 3, 6)
        assert parse_multisegment(format_multisegment(m)) == m


def _signs(word):
    return [sign for sign, _at in expand(word)]


def test_left_signature_hand_example():
    # i=1 on [2,3],[1,2],[1]: starts 2,1,1 give "+", "-", "-" in storage order
    assert _signs(C3.count_words(MIXED, 1)[0]) == ["+", "-", "-"]
    # i=2: only [2,3] starts at 2
    assert _signs(C3.count_words(MIXED, 2)[0]) == ["-"]
    assert _signs(C3.count_words(MIXED, 3)[0]) == []


def test_right_signature_hand_example():
    # i=2 on the same element: ends 3,2,1 give nothing, "+", "-" after the
    # right-order resort puts [2,3] first, then [1], then [1,2]
    assert _signs(C3.count_words(MIXED, 2)[1]) == ["-", "+"]
    assert _signs(C3.count_words(MIXED, 1)[1]) == ["+"]
    # counts 3 and 4 of the starred scan order along 3 read [2,3] and [1,2]
    assert expand(C3.count_words(MIXED, 3)[1]) == [("+", 3), ("-", 4)]


def test_counter_table_hand_example():
    expected = {1: (1, 1, -1), 2: (1, 1, 0), 3: (0, 0, 0)}
    for i, (eps, eps_star, phi_i) in expected.items():
        assert C3.epsilon(MIXED, i) == eps
        assert C3.epsilon_star(MIXED, i) == eps_star
        assert phi(C3, MIXED, i) == phi_i


def test_lowering_hand_examples():
    assert format_multisegment(C3.lowering(MIXED, 1)) == "[2,3],[1,2],2*[1]"
    assert format_multisegment(C3.lowering(MIXED, 2)) == "[2,3],[1,2],[2],[1]"
    assert format_multisegment(C3.lowering(MIXED, 3)) == "[2,3],[3],[1,2],[1]"
    # surviving plus extends a start: f_1 on [2,3] alone gives [1,3]
    assert format_multisegment(C3.lowering(parse_multisegment("[2,3]"), 1)) == "[1,3]"


def test_raising_hand_examples():
    assert format_multisegment(C3.raising(MIXED, 1)) == "[2,3],[1,2]"
    assert format_multisegment(C3.raising(MIXED, 2)) == "[3],[1,2],[1]"
    assert C3.raising(MIXED, 3) is None
    assert C3.raising(C3.highest, 1) is None
    # a length-one segment is deleted outright
    assert C3.raising(parse_multisegment("[2]"), 2) == EMPTY


def test_highest_element():
    assert C3.highest == EMPTY
    assert C3.height(EMPTY) == 0
    assert C3.epsilon(EMPTY, 1) == 0
    assert C3.weight(EMPTY) == C3.lattice.zero()


def test_weight_is_negative_root_sum():
    lat = C3.lattice
    assert C3.weight(parse_multisegment("[1]")) == from_coeffs(lat, [-1, 0, 0])
    assert C3.weight(MIXED) == from_coeffs(lat, [-2, -2, -1])


def test_lowering_weight_and_counter_steps():
    rng = random.Random(23)
    for _ in range(120):
        m = random_multisegment(rng, 3, 6)
        for i in (1, 2, 3):
            f = C3.lowering(m, i)
            assert C3.weight(f) == C3.weight(m) - C3.lattice.alpha(i)
            assert C3.epsilon(f, i) == C3.epsilon(m, i) + 1
            assert C3.raising(f, i) == m


def test_epsilon_matches_raising_string_exhaustive():
    crystal = MultisegmentCrystal(2)
    for m in iter_multisegments(2, 4):
        for i in (1, 2):
            steps, cur = 0, m
            while (cur := crystal.raising(cur, i)) is not None:
                steps += 1
            assert steps == crystal.epsilon(m, i)


def test_star_epsilon_matches_star_raising_string_exhaustive():
    crystal = MultisegmentCrystal(2)
    for m in iter_multisegments(2, 4):
        for i in (1, 2):
            steps, cur = 0, m
            while (cur := crystal.star_raising(cur, i)) is not None:
                steps += 1
            assert steps == crystal.epsilon_star(m, i)


def test_phi_steps_with_the_operators():
    # phi_i(f_i b) = phi_i(b) - 1, and phi_i(e_i b) = phi_i(b) + 1 where e_i b exists
    for m in iter_multisegments(3, 5):
        for i in (1, 2, 3):
            assert phi(C3, C3.lowering(m, i), i) == phi(C3, m, i) - 1
            up = C3.raising(m, i)
            if up is not None:
                assert phi(C3, up, i) == phi(C3, m, i) + 1


def test_star_dual_hand_examples():
    cases = {
        "1": "1",
        "[1]": "[1]",
        "[1,2]": "[2],[1]",
        "[1,3]": "[3],[2],[1]",
        "[2],[1]": "[1,2]",
        "2*[1]": "2*[1]",
        "[2,3],[1,2],[1]": "[2,3],[1,2],[1]",
    }
    for text, dual in cases.items():
        assert format_multisegment(C3.star(parse_multisegment(text))) == dual


def _huge_count_vectors(seed):
    """(crystal, m) for seeded random count vectors at ranks 5, 8 and 12, many entries 20 digits long."""
    rng = random.Random(seed)
    for n in (5, 8, 12):
        crystal = MultisegmentCrystal(n)
        for _ in range(40):
            pairs = [
                (Segment(a, b), rng.choice((1, 2, rng.randrange(10**19, 10**20))))
                for b in range(1, n + 1)
                for a in range(1, b + 1)
                if rng.random() < 0.5
            ]
            yield crystal, Multisegment.from_counts(pairs)


def test_star_is_involution_random():
    rng = random.Random(47)
    cases = [(C3, random_multisegment(rng, 3, 7)) for _ in range(150)]
    for crystal, m in cases + list(_huge_count_vectors(67)):
        # compare the tuples: a failing == on multisegments would make pytest
        # list their 20-digit multiplicities segment by segment
        assert crystal.star(crystal.star(m)).mults == m.mults
        assert crystal.weight(crystal.star(m)) == crystal.weight(m)


def test_star_swaps_counters():
    rng = random.Random(53)
    cases = [(C3, random_multisegment(rng, 3, 7)) for _ in range(150)]
    for crystal, m in cases + list(_huge_count_vectors(71)):
        st = crystal.star(m)
        for i in crystal.indices():
            assert crystal.epsilon_star(m, i) == crystal.epsilon(st, i)
            assert crystal.epsilon(m, i) == crystal.epsilon_star(st, i)


def test_star_conjugates_operators():
    rng = random.Random(59)
    for _ in range(100):
        m = random_multisegment(rng, 3, 6)
        st = C3.star(m)
        for i in (1, 2, 3):
            assert C3.star(C3.lowering(m, i)) == C3.star_lowering(st, i)
            e = C3.raising(m, i)
            se = C3.star_raising(st, i)
            assert (e is None) == (se is None)
            if e is not None:
                assert C3.star(e) == se


def test_star_lowering_hand_examples():
    # star operators act on segment ends
    assert format_multisegment(C3.star_lowering(parse_multisegment("[1]"), 2)) == "[1,2]"
    assert format_multisegment(C3.star_lowering(EMPTY, 2)) == "[2]"
    assert format_multisegment(C3.star_raising(parse_multisegment("[1,2]"), 2)) == "[1]"
    assert C3.star_raising(parse_multisegment("[2]"), 2) == EMPTY
    assert C3.star_raising(EMPTY, 1) is None


def test_star_inverse_pairs_random():
    rng = random.Random(61)
    for _ in range(120):
        m = random_multisegment(rng, 3, 6)
        for i in (1, 2, 3):
            sf = C3.star_lowering(m, i)
            assert C3.star_raising(sf, i) == m
            assert C3.epsilon_star(sf, i) == C3.epsilon_star(m, i) + 1
            assert C3.weight(sf) == C3.weight(m) - C3.lattice.alpha(i)


def test_plain_and_star_strings_commute():
    # raising all the way in i then star-raising all the way in j lands on
    # the same element regardless of order, checked on a small random set
    rng = random.Random(67)
    for _ in range(60):
        m = random_multisegment(rng, 2, 5)
        crystal = MultisegmentCrystal(2)

        def drain(b, i, op):
            while (nxt := op(b, i)) is not None:
                b = nxt
            return b

        a = drain(drain(m, 1, crystal.raising), 1, crystal.star_raising)
        b = drain(drain(m, 1, crystal.star_raising), 1, crystal.raising)
        assert a == b


def test_validate_accepts_good_and_rejects_out_of_range():
    C3.validate(MIXED)
    C3.validate(EMPTY)
    with pytest.raises(ValueError):
        MultisegmentCrystal(2).validate(parse_multisegment("[1,5]"))


def test_indices_range():
    assert list(C3.indices()) == [1, 2, 3]
    assert list(MultisegmentCrystal(1).indices()) == [1]


def test_height_accumulates_box_count():
    assert C3.height(MIXED) == 5
    assert C3.height(parse_multisegment("2*[1,3]")) == 6


def _survivors(word, rng):
    """Segments of the minus and of the plus symbols that survive a random-order cancellation."""
    left = cancel_in_random_order(word, rng)
    return [seg for sign, seg in left if sign == "-"], [seg for sign, seg in left if sign == "+"]


def _deep_multisegment(rng, n, max_ht, min_ht=0):
    """Random segments inside rank n whose heights add up to a uniform draw from min_ht..max_ht."""
    budget, segs = rng.randint(min_ht, max_ht), []
    while budget:
        a = rng.randint(1, n)
        b = rng.randint(a, min(n, a + budget - 1))
        segs.append(Segment(a, b))
        budget -= b - a + 1
    return Multisegment(segs)


def test_operators_match_per_symbol_cancellation_exhaustive():
    rng = random.Random(83)
    deep = random.Random(89)
    # rank 1 and i = n read single-segment plain words; rank 8 reads the longest ones
    cases = (
        (4, iter_multisegments(4, 6)),
        (1, iter_multisegments(1, 6)),
        (8, [_deep_multisegment(deep, 8, 60) for _ in range(50)]),
    )
    for n, inputs in cases:
        crystal = MultisegmentCrystal(n)
        for m in inputs:
            for i in crystal.indices():
                # the words by their definition, from the segments in left order
                plain = [("-" if s.a == i else "+", s) for s in segments(m) if s.a in (i, i + 1)]
                starred = sorted((s for s in segments(m) if s.b in (i - 1, i)), key=lambda s: (s.a, -s.b), reverse=True)
                starred = [("+" if s.b == i else "-", s) for s in starred]

                minus, plus = _survivors(plain, rng)
                assert crystal.epsilon(m, i) == len(minus)
                want = replace_one(m, plus[0], Segment(i, plus[0].b)) if plus else add(m, Segment(i, i))
                assert crystal.lowering(m, i) == want
                if minus:
                    seg = minus[-1]
                    want = replace_one(m, seg, Segment(i + 1, seg.b) if seg.b > i else None)
                assert crystal.raising(m, i) == (want if minus else None)

                minus, plus = _survivors(starred, rng)
                assert crystal.epsilon_star(m, i) == len(plus)
                want = replace_one(m, minus[-1], Segment(minus[-1].a, i)) if minus else add(m, Segment(i, i))
                assert crystal.star_lowering(m, i) == want
                if plus:
                    seg = plus[0]
                    want = replace_one(m, seg, Segment(seg.a, i - 1) if seg.a < i else None)
                assert crystal.star_raising(m, i) == (want if plus else None)


def _storage(n):
    """Every segment inside rank n in storage order: by end, then by start."""
    return [Segment(a, b) for b in range(1, n + 1) for a in range(1, b + 1)]


def _word_segments(n, i):
    """The segments the plain and the starred word along i read, each largest first in its order.

    Plain: [i,t] (-) and [i+1,t] (+) in the left order (right ends first, a
    larger left end is smaller); starred: [t,i] (+) and [t,i-1] (-) in the
    right order (left ends first, a larger right end is smaller).
    """
    segs = _storage(n)
    plain = sorted((s for s in segs if s.a in (i, i + 1)), key=lambda s: (s.b, -s.a), reverse=True)
    starred = sorted((s for s in segs if s.b in (i - 1, i)), key=lambda s: (s.a, -s.b), reverse=True)
    return [("-" if s.a == i else "+", s) for s in plain], [("+" if s.b == i else "-", s) for s in starred]


def _list_moved(m, drop, put):
    """m's multiplicities copied to a list, one copy fewer of drop and one more of put, trailing zeros trimmed."""
    mults = list(m.mults)
    for seg, step in ((drop, -1), (put, 1)):
        if seg is not None:
            j = _storage(seg.b).index(seg)
            mults += [0] * (j + 1 - len(mults))
            mults[j] += step
    while mults and not mults[-1]:
        mults.pop()
    return tuple(mults)


def _by_definition(n, m, i, rng):
    """(lowering, raising, star_lowering, star_raising) of m along i as tuples of multiplicities, None for no raise."""
    held = Counter(segments(m))
    plain, starred = ([sym for sym in word for _ in range(held[sym[1]])] for word in _word_segments(n, i))
    minus, plus = _survivors(plain, rng)
    lower = _list_moved(m, plus[0], Segment(i, plus[0].b)) if plus else _list_moved(m, None, Segment(i, i))
    raise_ = None if not minus else _list_moved(m, minus[-1], Segment(i + 1, minus[-1].b) if minus[-1].b > i else None)
    minus, plus = _survivors(starred, rng)
    star_lower = _list_moved(m, minus[-1], Segment(minus[-1].a, i)) if minus else _list_moved(m, None, Segment(i, i))
    star_raise = None if not plus else _list_moved(m, plus[0], Segment(plus[0].a, i - 1) if plus[0].a < i else None)
    return lower, raise_, star_lower, star_raise


def _ending_at(rng, n, end):
    """A multisegment whose stored tuple ends at position end: one copy there, zero to two below."""
    mults = [rng.choice((0, 0, 1, 2)) for _ in range(end)] + [1]
    return Multisegment.from_counts(zip(_storage(n), mults))


def _boundary_inputs(n, rng):
    """Per word, multisegments whose stored tuple ends at the word's highest position and one short of it."""
    out = []
    for i in range(1, n + 1):
        for word in _word_segments(n, i):
            top = max(_storage(n).index(s) for _sign, s in word)
            for end in (top, top - 1):
                if end >= 0:
                    out += [_ending_at(rng, n, end) for _ in range(6)]
    return out


def test_operator_results_stay_canonical_at_the_padding_boundary():
    rng = random.Random(61)
    names = ("lowering", "raising", "star_lowering", "star_raising")
    for n in range(1, 5):
        crystal, ext = MultisegmentCrystal(n), ExtendedCrystal(MultisegmentCrystal(n))
        boundary = _boundary_inputs(n, rng)
        for m in [*iter_multisegments(n, 5), *boundary]:
            for i in crystal.indices():
                for name, want in zip(names, _by_definition(n, m, i, rng)):
                    got = getattr(crystal, name)(m, i)
                    if want is None:
                        assert got is None, (name, i, m)
                    else:
                        assert type(got) is Multisegment and got.mults == want, (name, i, m)
                        assert not got.mults or got.mults[-1]
        # both branches of the extended operators, on the boundary inputs
        branches = Counter()
        for hi, lo in zip(boundary, boundary[1:] + boundary[:1]):
            for c in (ext.element({1: hi, 0: lo}), ext.element({1: hi}), ext.element({0: lo})):
                hi_c, lo_c = ext.slot(c, 1), ext.slot(c, 0)
                for i in crystal.indices():
                    plain_wins = crystal.epsilon(lo_c, i) >= crystal.epsilon_star(hi_c, i)
                    if plain_wins:
                        want = {1: hi_c, 0: crystal.lowering(lo_c, i)}
                    else:
                        want = {1: crystal.star_raising(hi_c, i), 0: lo_c}
                    got = ext.lowering(c, i, 0)
                    assert got == ext.element(want) and got == ext.star_raising(c, i, 1)
                    branches["lowering", plain_wins] += 1
                    plain_wins = crystal.epsilon(lo_c, i) > crystal.epsilon_star(hi_c, i)
                    if plain_wins:
                        want = {1: hi_c, 0: crystal.raising(lo_c, i)}
                    else:
                        want = {1: crystal.star_lowering(hi_c, i), 0: lo_c}
                    got = ext.raising(c, i, 0)
                    assert got == ext.element(want) and got == ext.star_lowering(c, i, 1)
                    branches["raising", plain_wins] += 1
                    for _k, b in got.slots + ext.lowering(c, i, 0).slots:
                        assert b.mults[-1]
        assert len(branches) == 4, (n, branches)


def test_star_raising_trims_the_zeros_below_an_emptied_top():
    # [1,3] at position 3 is the top of (1, 0, 0, 1); star raising along 3
    # trims it to [1,2] at position 1, so the two zeros above go too
    m = parse_multisegment("[1,3],[1]")
    assert m.mults == (1, 0, 0, 1)
    assert C3.star_raising(m, 3).mults == (1, 1)
    assert C3.star_raising(parse_multisegment("[1,3]"), 3).mults == (0, 1)
    assert C3.star_raising(parse_multisegment("[3],[1]"), 3).mults == (1,)
    # the plain raise that empties the top keeps the rest
    assert C3.raising(parse_multisegment("[3],[1]"), 3).mults == (1,)


def test_count_words_are_the_words_of_the_segment_rules_exhaustive():
    for n in range(1, 5):
        crystal = MultisegmentCrystal(n)
        for m in iter_multisegments(n, 4):
            held = {(a, b): mult for a, b, mult in m.entries()}
            for i in crystal.indices():
                plain, starred = _word_segments(n, i)
                # the plain word closes with an empty plus, the starred one opens with an empty minus
                assert [sign for sign, _s in plain] + ["+"] == ["-", "+"] * (len(plain) // 2 + 1)
                assert ["-"] + [sign for sign, _s in starred] == ["-", "+"] * (len(starred) // 2 + 1)
                want = (*(held.get(s, 0) for _sign, s in plain), 0), (0, *(held.get(s, 0) for _sign, s in starred))
                assert crystal.count_words(m, i) == want, (i, m)


def test_count_words_refuses_what_the_operators_refuse():
    past = parse_multisegment("3*[1],3*[1,2]")
    with pytest.raises(ValueError, match=r"^segment \[1,2\] does not fit inside rank 1$"):
        MultisegmentCrystal(1).lowering(past, 1)
    with pytest.raises(ValueError, match=r"^segment \[1,2\] does not fit inside rank 1$"):
        MultisegmentCrystal(1).count_words(past, 1)
    with pytest.raises(ValueError, match=r"^operator index 4 out of range for rank 3$"):
        C3.lowering(MIXED, 4)
    with pytest.raises(ValueError, match=r"^operator index 4 out of range for rank 3$"):
        C3.count_words(MIXED, 4)


def test_star_is_star_lowering_along_the_reversed_raising_path():
    # the path definition of star, one box at a time, against the bulk string
    # data star: every multisegment of ranks 1..4 up to height 7, and deep
    # rank-8 inputs whose words are the longest
    deep = random.Random(61)
    cases = [(n, iter_multisegments(n, 7)) for n in range(1, 5)]
    cases.append((8, [_deep_multisegment(deep, 8, 60, min_ht=1) for _ in range(50)]))
    for n, inputs in cases:
        crystal = MultisegmentCrystal(n)
        for m in inputs:
            path, cur = [], m
            while cur != EMPTY:
                i = next(i for i in crystal.indices() if crystal.epsilon(cur, i))
                path.append(i)
                cur = crystal.raising(cur, i)
            want = EMPTY
            for i in reversed(path):
                want = crystal.star_lowering(want, i)
            assert crystal.star(m) == want


def _full_sweep(crystal, m, skip=lambda a, b, c: False):
    """star by its definition: every move of crystal._moves in order, unless skip(x_ij, x_il, x_jl)."""
    n = crystal.n
    x = [*m.mults, *[0] * (n * (n + 1) // 2 - len(m))]
    for ij, il, jl in crystal._moves:
        a, b, c = x[ij], x[il], x[jl]
        if not skip(a, b, c):
            p = min(a, c)
            x[ij], x[il], x[jl] = a + b - p, p, c + b - p
    while x and not x[-1]:
        x.pop()
    return tuple(x)


def test_star_writes_what_the_full_sweep_writes():
    # rank 2 has the one move on ([1], [1,2], [2]); one input per branch of the sweep
    c2 = MultisegmentCrystal(2)
    hand = {
        "3*[1],2*[2]": "2*[1,2],[1]",  # x_il = 0 < x_ij, x_jl: the move writes
        "4*[1],2*[1,2],2*[2]": "2*[1,2],2*[2],4*[1]",  # x_il = min(x_ij, x_jl) > 0
        "1": "1",  # all zero
        "[1]": "[1]",  # x_il = x_jl = 0
        "[2]": "[2]",  # x_il = x_ij = 0
    }
    cases = []
    for text, want in hand.items():
        m = parse_multisegment(text)
        assert format_multisegment(c2.star(m)) == want
        cases.append((c2, m))
    cases += [(MultisegmentCrystal(n), m) for n in range(1, 5) for m in iter_multisegments(n, 7)]
    deep, c8 = random.Random(97), MultisegmentCrystal(8)
    cases += [(c8, _deep_multisegment(deep, 8, 60)) for _ in range(50)]
    cases += list(_huge_count_vectors(73))
    full = [_full_sweep(crystal, m) for crystal, m in cases]
    for (crystal, m), want in zip(cases, full):
        assert crystal.star(m).mults == want
    # the comparison has teeth: a sweep that skips a move that is not the
    # identity differs from the full one on these inputs
    for skip in (lambda a, b, c: not b, lambda a, b, c: not a):
        assert any(_full_sweep(crystal, m, skip) != want for (crystal, m), want in zip(cases, full))


# The draws as first written: a pool of Segment objects filtered by height on
# every step.  Seeded sweeps must keep drawing exactly these elements.


def _reference_all_segments(n):
    return [Segment(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def _reference_random_multisegment(rng, n, max_ht):
    segs = []
    budget = rng.randint(0, max_ht)
    pool = _reference_all_segments(n)
    while True:
        fits = [s for s in pool if s.height <= budget]
        if not fits or rng.random() < 0.2:
            break
        s = rng.choice(fits)
        segs.append(s)
        budget -= s.height
    return Multisegment(segs)


def _reference_random_ext_element(rng, ext, window, max_ht):
    mapping = {}
    budget = rng.randint(0, max_ht)
    for k in range(window[0], window[1] + 1):
        if budget <= 0:
            break
        take = rng.randint(0, budget)
        if take:
            m = _reference_random_multisegment(rng, ext.n, take)
            if m != EMPTY:
                mapping[k] = m
                budget -= m.height()
    return ext.element(mapping)


def test_random_multisegment_draws_what_the_pool_filter_drew():
    for n in range(1, 6):
        for max_ht in range(13):
            for seed in range(200):
                got, want = random.Random(seed), random.Random(seed)
                assert random_multisegment(got, n, max_ht) == _reference_random_multisegment(want, n, max_ht)
                assert got.getstate() == want.getstate()


def test_random_ext_element_draws_what_the_pool_filter_drew():
    ext = ExtendedCrystal(C3)
    for window in ((-1, 0), (-2, 2)):
        for max_ht in range(9):
            for seed in range(100):
                got, want = random.Random(seed), random.Random(seed)
                c = random_ext_element(got, ext, window, max_ht)
                assert c == _reference_random_ext_element(want, ext, window, max_ht)
                assert got.getstate() == want.getstate()
