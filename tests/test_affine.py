"""Tests for the word-indexed node model and its signature-rule operators."""

import pickle
import random

import pytest

from extcrystal.affine import (
    ZERO_WEIGHT,
    AffineModel,
    HLNode,
    HLWeight,
    format_hl_weight,
    parse_hl_weight,
)
from extcrystal.enumeration import iter_ext_elements, random_ext_element
from extcrystal.extended import ExtElement, ExtendedCrystal, format_ext_element, parse_ext_element
from extcrystal.msegment import Multisegment, MultisegmentCrystal, Segment
from extcrystal.parsing import ParseError
from extcrystal.rootdata import CartanA, RootLattice
from extcrystal.signature import expand
from extcrystal.sl2 import Sl2Crystal
from support import (
    add,
    add_node,
    block_of,
    from_coeffs,
    node_of_segment,
    reference_moves,
    remove_node,
    scan_word,
    sign_at,
)

M3 = AffineModel(3)
EXT3 = ExtendedCrystal(MultisegmentCrystal(3))

# The rank-3 worked example used throughout: a weight with eleven nodes,
# spread over three consecutive blocks.
DEMO = ("(3,-4),(1,-2),(3,-2),2*(2,-1),(2,1),(1,2)," "(2,3),2*(3,4),(2,5),(2,7)")

# Frozen block tables for rank 3: the base block and its two neighbors.
BLOCK_0 = {(1, 0), (2, 1), (1, 2), (3, 2), (2, 3), (1, 4)}
BLOCK_MINUS_1 = {(3, -4), (2, -3), (1, -2), (3, -2), (2, -1), (3, 0)}
BLOCK_PLUS_1 = {(3, 4), (2, 5), (1, 6), (3, 6), (2, 7), (3, 8)}

# Frozen base-block dictionary between segments and nodes.
GAMMA_BASE = {
    Segment(1, 1): HLNode(1, 0),
    Segment(2, 2): HLNode(1, 2),
    Segment(3, 3): HLNode(1, 4),
    Segment(1, 2): HLNode(2, 1),
    Segment(2, 3): HLNode(2, 3),
    Segment(1, 3): HLNode(3, 2),
}


def as_pairs(nodes):
    return {(p.i, p.a) for p in nodes}


def total(lam):
    """Sum of the coefficients of a node weight."""
    return sum(c for _, c in lam.terms)


def signature(model, lam, i, k):
    """lam's signature word along (i, k), one (sign, position) per symbol."""
    word = scan_word(model, lam, i, k)
    return [(sign, len(word) - r) for sign, r in expand(word)]


def test_node_parity_constraint():
    HLNode(1, 0)
    HLNode(2, -3)
    for i, a in ((1, 1), (2, 0), (3, 3)):
        with pytest.raises(ValueError):
            HLNode(i, a)


def test_node_is_its_sort_key():
    p = HLNode(3, -4)
    assert p == (-4, 3) and (p.i, p.a) == (3, -4)
    assert (str(p), repr(p)) == ("(3,-4)", "HLNode(i=3, a=-4)")
    with pytest.raises(AttributeError):
        p.i = 1
    for bad in ((0, 1), (1, 1), (1.0, 2)):
        with pytest.raises(ValueError):
            HLNode(*bad)


def test_nodes_and_weights_survive_pickle():
    lam = parse_hl_weight(DEMO)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(lam, protocol))
        assert back == lam and hash(back) == hash(lam) and format_hl_weight(back) == DEMO
        assert all(type(p) is HLNode for p in back.support())
        p = pickle.loads(pickle.dumps(HLNode(2, -1), protocol))
        assert type(p) is HLNode and (p.i, p.a) == (2, -1)
        # the pool pickles every value kind; Multisegment's __new__ takes segments
        c = parse_ext_element("1:99999999999999999999*[1,3],[2];-2:[3]", EXT3)
        for value in (lam, c, c.slot(1), MultisegmentCrystal(3).highest, EXT3.weight(c)):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is type(value)
        assert all(type(m) is Multisegment for _, m in pickle.loads(pickle.dumps(c, protocol)).slots)


def test_block_tables_frozen():
    assert as_pairs(M3.block_nodes(0)) == BLOCK_0
    assert as_pairs(M3.block_nodes(-1)) == BLOCK_MINUS_1
    assert as_pairs(M3.block_nodes(1)) == BLOCK_PLUS_1


def test_blocks_tile_the_node_set():
    # every parity-correct node lies in exactly one block
    for i in (1, 2, 3):
        for a in range(-9, 10):
            if (a - i) % 2 == 0:
                continue
            p = HLNode(i, a)
            k = block_of(M3, p)
            assert p in M3.block_nodes(k)
            assert p not in M3.block_nodes(k + 1)
            assert p not in M3.block_nodes(k - 1)


def test_dual_shift_hand_values():
    assert M3.dual_shift(HLNode(1, 0), 1) == HLNode(3, 4)
    assert M3.dual_shift(HLNode(1, 0), -1) == HLNode(3, -4)
    assert M3.dual_shift(HLNode(1, 0), 2) == HLNode(1, 8)
    assert M3.dual_shift(HLNode(2, 3), 1) == HLNode(2, 7)
    assert M3.dual_shift(HLNode(2, 3)) == HLNode(2, 7)


def test_dual_shift_composition_and_inverse():
    for i, a in ((1, 0), (2, 1), (3, 2), (2, -3)):
        p = HLNode(i, a)
        assert M3.dual_shift(M3.dual_shift(p, 1), 1) == M3.dual_shift(p, 2)
        assert M3.dual_shift(M3.dual_shift(p, 3), -3) == p
        assert M3.dual_shift(p, 0) == p


def test_dual_shift_maps_blocks_to_blocks():
    for k in (-2, -1, 0, 1, 2):
        shifted = {M3.dual_shift(p, k) for p in M3.block_nodes(0)}
        assert shifted == set(M3.block_nodes(k))


def test_segment_node_dictionary_all_18_positions():
    for k in (-1, 0, 1):
        for seg, base_node in GAMMA_BASE.items():
            node = node_of_segment(M3, seg, k)
            assert node == M3.dual_shift(base_node, k)
            back_seg, back_k = M3.segment_of_node(node)
            assert (back_seg, back_k) == (seg, k)


def test_generator_nodes():
    # the node of the one-segment element [i,i] in slot zero
    assert [node_of_segment(M3, Segment(i, i), 0) for i in (1, 2, 3)] == [
        HLNode(1, 0),
        HLNode(1, 2),
        HLNode(1, 4),
    ]


def test_node_weight_matches_signed_segment_weight():
    lat = M3.weight(ZERO_WEIGHT)
    crystal = MultisegmentCrystal(3)
    for i in (1, 2, 3):
        for a in range(-9, 10):
            if (a - i) % 2 == 0:
                continue
            p = HLNode(i, a)
            seg, k = M3.segment_of_node(p)
            w = crystal.weight(add(crystal.highest, seg))
            want = lat - w if k % 2 else lat + w
            assert M3.node_weight(p) == want


def test_node_weight_frozen_values():
    lat = MultisegmentCrystal(3).lattice
    assert M3.node_weight(HLNode(1, 0)) == from_coeffs(lat, [-1, 0, 0])
    assert M3.node_weight(HLNode(3, -4)) == from_coeffs(lat, [1, 0, 0])
    assert M3.node_weight(HLNode(3, 4)) == from_coeffs(lat, [1, 0, 0])


def test_weight_scales_large_coefficients():
    # [1] in slot 0 weighs -alpha_1 and its dual shift (3,4) in slot 1 weighs +alpha_1
    lat = MultisegmentCrystal(3).lattice
    assert M3.weight(parse_hl_weight("100000*(1,0)")) == from_coeffs(lat, [-100000, 0, 0])
    assert M3.weight(parse_hl_weight("100000*(1,0),7*(3,4)")) == from_coeffs(lat, [-99993, 0, 0])


def test_weight_text_round_trip():
    for text in ("0", "(1,0)", "2*(2,1)", DEMO):
        assert format_hl_weight(parse_hl_weight(text)) == text
    assert parse_hl_weight("0") == ZERO_WEIGHT
    with pytest.raises(ParseError):
        parse_hl_weight("(1,1)")
    with pytest.raises(ParseError):
        parse_hl_weight("(1,0),")
    for bad, pos in (("0*(1,0)", 0), ("(1,0), 0*(2,1)", 7)):
        with pytest.raises(ParseError, match="coefficient must be at least 1") as err:
            parse_hl_weight(bad)
        assert err.value.pos == pos


def test_weight_container_operations():
    w = parse_hl_weight("(1,0),2*(2,1)")
    assert dict(w).get(HLNode(2, 1), 0) == 2
    assert dict(w).get(HLNode(1, 2), 0) == 0
    assert total(w) == 3
    grown = add_node(w, HLNode(1, 2))
    assert format_hl_weight(grown) == "(1,0),2*(2,1),(1,2)"
    shrunk = remove_node(w, HLNode(2, 1))
    assert dict(shrunk).get(HLNode(2, 1), 0) == 1
    with pytest.raises(ValueError):
        remove_node(w, HLNode(1, 4))
    assert not w.is_zero()
    assert ZERO_WEIGHT.is_zero()


def test_signature_positions_frozen_base():
    nodes = M3.signature_nodes(1, 0)
    expected = [
        (1, HLNode(1, 0), "-"),
        (2, HLNode(1, 2), "+"),
        (3, HLNode(2, 1), "-"),
        (4, HLNode(2, 3), "+"),
        (5, HLNode(3, 2), "-"),
        (6, HLNode(3, 4), "+"),
    ]
    for t, node, sign in expected:
        assert nodes[t - 1] == node
        assert sign_at(t) == sign


def test_signature_positions_frozen_shifted():
    nodes = M3.signature_nodes(1, -1)
    expected = [
        (1, HLNode(3, -4), "-"),
        (2, HLNode(3, -2), "+"),
        (3, HLNode(2, -3), "-"),
        (4, HLNode(2, -1), "+"),
        (5, HLNode(1, -2), "-"),
        (6, HLNode(1, 0), "+"),
    ]
    for t, node, sign in expected:
        assert nodes[t - 1] == node
        assert sign_at(t) == sign


def test_signature_positions_cover_two_adjacent_blocks():
    n = 3
    for i in (1, 2, 3):
        for k in (-1, 0, 1):
            nodes = M3.signature_nodes(i, k)
            assert len(set(nodes)) == 2 * n
            blocks = {block_of(M3, p) for p in nodes}
            assert blocks == {k, k + 1}
            # signs alternate with position parity: one unit at t reads as one symbol
            for t in range(1, 2 * n + 1):
                lone = HLWeight([(nodes[t - 1], 1)])
                assert signature(M3, lone, i, k) == [("+" if t % 2 == 0 else "-", t)]


def test_signature_word_hand_example():
    lam = parse_hl_weight("(1,0),2*(2,1),(1,2)")
    assert signature(M3, lam, 1, 0) == [("-", 3), ("-", 3), ("+", 2), ("-", 1)]


def test_lowering_with_no_surviving_plus_adds_first_position():
    lam = parse_hl_weight("(1,0),2*(2,1),(1,2)")
    out = M3.lowering(lam, 1, 0)
    assert format_hl_weight(out) == "2*(1,0),2*(2,1),(1,2)"


def test_raising_moves_one_position_down():
    lam = parse_hl_weight("(1,0),2*(2,1),(1,2)")
    out = M3.raising(lam, 1, 0)
    assert format_hl_weight(out) == "(1,0),(2,1),2*(1,2)"


def test_raising_on_zero_adds_last_position():
    assert format_hl_weight(M3.raising(ZERO_WEIGHT, 1, 0)) == "(3,4)"
    assert format_hl_weight(M3.lowering(ZERO_WEIGHT, 1, 0)) == "(1,0)"


def test_demo_weight_replay():
    lam = parse_hl_weight(DEMO)
    low0 = M3.lowering(lam, 1, 0)
    assert low0 == remove_node(lam, HLNode(3, 4))
    low1 = M3.lowering(lam, 1, -1)
    assert low1 == add_node(remove_node(lam, HLNode(2, -1)), HLNode(1, -2))


def test_demo_weight_signature_signs():
    lam = parse_hl_weight(DEMO)
    assert [s for s, _t in signature(M3, lam, 1, 0)] == ["+", "+", "+", "-", "+"]


def test_operators_are_inverse_on_random_weights():
    rng = random.Random(71)
    pool = [p for k in (-1, 0, 1) for p in M3.block_nodes(k)]
    for _ in range(80):
        counts = {}
        for _ in range(rng.randint(0, 6)):
            p = rng.choice(pool)
            counts[p] = counts.get(p, 0) + 1
        lam = HLWeight.from_counts(counts)
        for i in (1, 2, 3):
            for k in (-2, -1, 0, 1):
                assert M3.raising(M3.lowering(lam, i, k), i, k) == lam
                assert M3.lowering(M3.raising(lam, i, k), i, k) == lam


def test_dual_shift_commutes_with_operators():
    # shifting every node by one block moves the operator window up by one
    rng = random.Random(73)
    pool = [p for k in (-1, 0, 1) for p in M3.block_nodes(k)]
    for _ in range(60):
        counts = {}
        for _ in range(rng.randint(0, 5)):
            p = rng.choice(pool)
            counts[p] = counts.get(p, 0) + 1
        lam = HLWeight.from_counts(counts)
        moved = M3.dual_shift_weight(lam, 1)
        for i in (1, 2, 3):
            for k in (-1, 0):
                assert M3.lowering(moved, i, k + 1) == M3.dual_shift_weight(M3.lowering(lam, i, k), 1)
                assert M3.raising(moved, i, k + 1) == M3.dual_shift_weight(M3.raising(lam, i, k), 1)


def test_signature_word_concatenates_slotwise_signatures():
    # the affine word at (i, k) reads the slot k+1 content end-first, then
    # the slot k content start-first; checked against the hand example
    from extcrystal.msegment import parse_multisegment

    lam = parse_hl_weight(DEMO)
    m_high = parse_multisegment("2*[1],[1,2],[2,3]")  # block 1 content of DEMO
    m_low = parse_multisegment("[1,2],[2],[2,3]")  # block 0 content of DEMO
    got = [s for s, _t in signature(M3, lam, 1, 0)]
    want = [s for s, _at in expand(EXT3.crystal.count_words(m_high, 1)[1])]
    want += [s for s, _at in expand(EXT3.crystal.count_words(m_low, 1)[0])]
    assert got == want == ["+", "+", "+", "-", "+"]


def test_weight_of_node_sum():
    lam = parse_hl_weight("(1,0),2*(3,4)")
    lat = MultisegmentCrystal(3).lattice
    want = from_coeffs(lat, [-1, 0, 0]) + from_coeffs(lat, [2, 0, 0])
    assert M3.weight(lam) == want


def test_translation_to_slots_round_trip_fixed():
    c = parse_ext_element("0:[1,3],[1]", EXT3)
    w = M3.to_weight(c)
    assert format_hl_weight(w) == "(1,0),(3,2)"
    assert M3.to_extended(w) == c


def test_translation_round_trip_random():
    rng = random.Random(79)
    for _ in range(80):
        c = random_ext_element(rng, EXT3, (-2, 2), 5)
        w = M3.to_weight(c)
        assert M3.to_extended(w) == c
        assert M3.weight(w) == EXT3.weight(c)


def test_translation_intertwines_operators_spot_check():
    rng = random.Random(83)
    for _ in range(40):
        c = random_ext_element(rng, EXT3, (-1, 1), 4)
        for i in (1, 2, 3):
            for k in (-1, 0):
                assert M3.to_weight(EXT3.lowering(c, i, k)) == M3.lowering(M3.to_weight(c), i, k)
                assert M3.to_weight(EXT3.raising(c, i, k)) == M3.raising(M3.to_weight(c), i, k)


def test_operators_match_per_symbol_cancellation_on_large_coefficients():
    from extcrystal.verify import cancel_in_random_order

    model = AffineModel(5)
    rng = random.Random(89)
    pool = [p for k in (-1, 0, 1, 2) for p in model.block_nodes(k)]
    for _ in range(60):
        lam = HLWeight.from_counts({p: rng.randint(10, 40) for p in rng.sample(pool, rng.randint(1, 8))})
        for i in range(1, 6):
            for k in (-1, 0, 1):
                nodes = model.signature_nodes(i, k)
                left = cancel_in_random_order(signature(model, lam, i, k), rng)
                minus = [t for sign, t in left if sign == "-"]
                plus = [t for sign, t in left if sign == "+"]
                if plus:
                    want = remove_node(lam, nodes[plus[0] - 1])
                    if plus[0] < len(nodes):
                        want = add_node(want, nodes[plus[0]])
                else:
                    want = add_node(lam, nodes[0])
                assert model.lowering(lam, i, k) == want
                if minus:
                    want = remove_node(lam, nodes[minus[-1] - 1])
                    if minus[-1] > 1:
                        want = add_node(want, nodes[minus[-1] - 2])
                else:
                    want = add_node(lam, nodes[-1])
                assert model.raising(lam, i, k) == want


def assert_canonical(lam):
    # what the validating constructor would build: same value, same hash,
    # terms strictly increasing in (a, i), no zero coefficient
    rebuilt = HLWeight(lam.terms)
    assert lam == rebuilt and hash(lam) == hash(rebuilt)
    keys = [(p.a, p.i) for p, _ in lam.terms]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert all(c > 0 for _, c in lam.terms)


def test_node_operators_return_canonical_weights():
    model = AffineModel(8)
    rng = random.Random(97)
    pool = [p for k in (-1, 0, 1, 2) for p in model.block_nodes(k)]
    for _ in range(150):
        lam = HLWeight.from_counts({p: rng.randint(1, 40) for p in rng.sample(pool, rng.randint(1, 12))})
        for i in range(1, 9):
            for k in (-1, 0, 1):
                assert_canonical(model.lowering(lam, i, k))
                assert_canonical(model.raising(lam, i, k))


# Along (1, 0) at rank 3 the scan positions 1..6 hold (1,0) -, (1,2) +,
# (2,1) -, (2,3) +, (3,2) -, (3,4) +.  Each case: weight, operator, the
# removed and the added node (None for neither), and the frozen result.
BIG = 99999999999999999999
SPLICE_CASES = {
    "unit leaves a coefficient-1 node": ("(1,2)", "lowering", (1, 2), (2, 1), "(2,1)"),
    "unit enters before the first term": ("(2,1)", "lowering", None, (1, 0), "(1,0),(2,1)"),
    "unit enters between terms": ("(2,-1),(1,4)", "lowering", None, (1, 0), "(2,-1),(1,0),(1,4)"),
    "unit enters after the last term": ("(2,-1),(1,4)", "raising", None, (3, 4), "(2,-1),(1,4),(3,4)"),
    "unit appears at position 1": ("(1,0)", "lowering", None, (1, 0), "2*(1,0)"),
    "unit vanishes past position 2n": ("(3,4),(1,6)", "lowering", (3, 4), None, "(1,6)"),
    "unit appears at position 2n": ("(1,2)", "raising", None, (3, 4), "(1,2),(3,4)"),
    "unit vanishes past position 1": ("(3,-4),(1,0)", "raising", (1, 0), None, "(3,-4)"),
    "20-digit coefficient": (f"{BIG}*(1,2)", "lowering", (1, 2), (2, 1), f"(2,1),{BIG - 1}*(1,2)"),
}


@pytest.mark.parametrize("case", sorted(SPLICE_CASES))
def test_node_operator_splice_edge_cases(case):
    text, op, removed, added, frozen = SPLICE_CASES[case]
    lam = parse_hl_weight(text)
    got = getattr(M3, op)(lam, 1, 0)
    want = lam
    if removed is not None:
        want = remove_node(want, HLNode(*removed))
    if added is not None:
        want = add_node(want, HLNode(*added))
    assert got == want
    assert format_hl_weight(got) == frozen
    assert_canonical(got)


# Weights with no term on the (1, 0) scan at rank 3: lowering's unit enters
# at (1,0), position 1, and raising's at (3,4), position 6, each at its sorted
# place among the terms.  Each case: weight, then the frozen lowering and
# raising.
SCAN_FREE_CASES = {
    "zero weight": ("0", "(1,0)", "(3,4)"),
    "unit enters before the first term": ("(2,5),(1,6)", "(1,0),(2,5),(1,6)", "(3,4),(2,5),(1,6)"),
    "unit enters between two terms": (
        "(2,-1),(1,4),(2,5)",
        "(2,-1),(1,0),(1,4),(2,5)",
        "(2,-1),(1,4),(3,4),(2,5)",
    ),
    "unit enters after the last term": ("(3,-4),(2,-1)", "(3,-4),(2,-1),(1,0)", "(3,-4),(2,-1),(3,4)"),
    "unit enters beside a term with its a": ("(3,0),(1,4)", "(1,0),(3,0),(1,4)", "(3,0),(1,4),(3,4)"),
    "terms only on the scans of k-1 and k+1": (
        "(3,-4),(2,-3),(2,-1),(2,5),(2,7),(1,8)",
        "(3,-4),(2,-3),(2,-1),(1,0),(2,5),(2,7),(1,8)",
        "(3,-4),(2,-3),(2,-1),(3,4),(2,5),(2,7),(1,8)",
    ),
    "20-digit coefficients next to the entering node": (
        f"{BIG}*(3,0),{BIG}*(1,4)",
        f"(1,0),{BIG}*(3,0),{BIG}*(1,4)",
        f"{BIG}*(3,0),{BIG}*(1,4),(3,4)",
    ),
}


@pytest.mark.parametrize("case", sorted(SCAN_FREE_CASES))
def test_node_operators_splice_a_unit_into_a_weight_off_the_scan(case):
    text, *frozen = SCAN_FREE_CASES[case]
    lam = parse_hl_weight(text)
    assert not set(lam.support()) & set(M3.signature_nodes(1, 0))
    for op, put, want in zip(("lowering", "raising"), ((1, 0), (3, 4)), frozen):
        got = getattr(M3, op)(lam, 1, 0)
        assert got == add_node(lam, HLNode(*put))
        assert format_hl_weight(got) == want
        assert_canonical(got)


def sparse_read_inputs(model, i, k, rng):
    """Weights that reach every case of the sparse read along (i, k)."""
    n = model.n
    scan = model.signature_nodes(i, k)
    near = [p for j in (k - 1, k, k + 1, k + 2) for p in model.block_nodes(j)]
    off = [p for p in near if p not in scan]
    both = sorted({*scan, *model.signature_nodes(i, k + 1), *model.signature_nodes(i, k - 1)})
    out = [ZERO_WEIGHT, HLWeight.from_counts({p: rng.randint(1, 9) for p in rng.sample(off, 4)})]
    for c in (1, 3, BIG):
        # two positions of one sign with nothing between them, alone and among other terms
        for t in range(3, 2 * n + 1):
            pair = {scan[t - 1]: c, scan[t - 3]: rng.choice((1, 2, BIG))}
            out.append(HLWeight.from_counts(pair))
            out.append(HLWeight.from_counts({**pair, **{p: c for p in rng.sample(off, 2)}}))
    for _ in range(20):
        # terms on this scan and on the scans of the neighbouring k, small and 20-digit
        picked = rng.sample(both, rng.randint(1, 8))
        out.append(HLWeight.from_counts({p: rng.choice((1, 2, 5, BIG, BIG + 7)) for p in picked}))
    return out


def test_operators_read_the_scan_as_the_full_word_does():
    model = AffineModel(8)
    rng = random.Random(8)
    for k in range(-2, 3):
        for i in range(1, 9):
            for lam in sparse_read_inputs(model, i, k, rng):
                want = reference_moves(model, lam, i, k)
                assert (model.lowering(lam, i, k), model.raising(lam, i, k)) == want, (i, k, str(lam))


def in_base_block(n, p):
    """Block zero by its definition: the triangle i-1 <= a <= 2n-1-i."""
    return 1 <= p.i <= n and p.i - 1 <= p.a <= 2 * n - 1 - p.i


def test_block_of_matches_its_definition():
    for n in range(1, 7):
        model = AffineModel(n)
        for i in range(1, n + 1):
            for a in range(-3 * (n + 1), 3 * (n + 1) + 1):
                if (a - i) % 2 == 0:
                    continue
                p = HLNode(i, a)
                hits = [k for k in range(-10, 11) if in_base_block(n, model.dual_shift(p, -k))]
                assert [block_of(model, p)] == hits
                for k in (BIG, BIG + 1, -BIG):
                    assert block_of(model, model.dual_shift(p, k)) == hits[0] + k


def reference_node(n, a, b, k):
    """(i, a) of [a,b] in slot k: the dual shift (i, a) -> (n+1-i, a+n+1), or its inverse, |k| times on (b-a+1, a+b-2)."""
    node = (b - a + 1, a + b - 2)
    for _ in range(abs(k)):
        node = (n + 1 - node[0], node[1] + (n + 1 if k > 0 else -(n + 1)))
    return node


def test_conversions_match_the_dictionary_exhaustive():
    for n in range(1, 6):
        model = AffineModel(n)
        for window in ((-3, 3), (-2, 1), (5, 6)):
            for c in iter_ext_elements(model.ext, (window[0], window[1] + 1), 3 if n <= 3 else 2):
                want = {}
                for k, m in c.slots:
                    for a, b, mult in m.entries():
                        node = reference_node(n, a, b, k)
                        want[node] = want.get(node, 0) + mult
                lam = model.to_weight(c)
                assert {(p.i, p.a): coeff for p, coeff in lam.terms} == want
                assert all(type(p) is HLNode and HLNode(p.i, p.a) == p and (p.a - p.i) % 2 for p in lam.support())
                assert_canonical(lam)
                assert model.to_extended(lam) == c
                for t in (-1, 1, 2):
                    shifted = model.dual_shift_weight(lam, t)
                    assert_canonical(shifted)
                    assert shifted == HLWeight(tuple((model.dual_shift(p, t), coeff) for p, coeff in lam.terms))
        # every node in reach stands for the segment and slot it is the node of
        for i in range(1, n + 1):
            for a in range(-60, 61):
                if (a - i) % 2:
                    p = HLNode(i, a)
                    seg, k = model.segment_of_node(p)
                    assert seg.b <= n and reference_node(n, seg.a, seg.b, k) == (i, a)
                    assert node_of_segment(model, seg, k) == p


def test_weight_refuses_a_term_that_is_not_a_node():
    for bad in ((1, 0), (0, 1), "(1,0)", None):
        with pytest.raises(ValueError) as err:
            HLWeight([(bad, 2)])
        assert str(err.value) == f"expected a node, got {bad!r}"
    with pytest.raises(ValueError):
        HLWeight.from_counts({(0, 1): 1})
    assert HLWeight([(HLNode(1, 0), 2)]) == parse_hl_weight("2*(1,0)")


def test_node_segment_and_weight_refuse_bool_as_an_integer():
    for i, a in ((True, 0), (1, True), (False, 1)):
        with pytest.raises(ValueError) as err:
            HLNode(i, a)
        assert str(err.value) == f"node coordinates must be integers, got ({i!r},{a!r})"
    for a, b in ((True, True), (1, True), (True, 2)):
        with pytest.raises(ValueError) as err:
            Segment(a, b)
        assert str(err.value) == f"segment endpoints must be integers, got [{a!r},{b!r}]"
    for c in (True, False):
        with pytest.raises(ValueError) as err:
            HLWeight([(HLNode(1, 0), c)])
        assert str(err.value) == f"coefficient of (1,0) must be an integer, got {c!r}"
    for make in (AffineModel, MultisegmentCrystal, RootLattice, CartanA):
        with pytest.raises(ValueError) as err:
            make(True)
        assert str(err.value) == "rank must be an integer between 1 and 64, got True"
    with pytest.raises(ValueError) as err:
        Sl2Crystal().validate(True)
    assert str(err.value) == "expected a nonnegative integer, got True"
    assert format_hl_weight(HLWeight([(HLNode(1, 0), 1)])) == "(1,0)" and Segment(1, 1) == (1, 1)


def test_conversions_drop_a_highest_slot_given_to_the_constructor():
    model = AffineModel(2)
    c = ExtElement([(0, Multisegment()), (1, Multisegment([Segment(1, 2)]))])
    assert model.to_extended(model.to_weight(c)) == c == ExtElement([(1, Multisegment([Segment(1, 2)]))])
    assert model.to_weight(ExtElement([(0, Multisegment())])) == ZERO_WEIGHT


def test_conversion_refusals():
    with pytest.raises(ValueError) as err:
        M3.to_extended(parse_hl_weight("(1,0),(4,1)"))
    assert str(err.value) == "node (4,1) out of range for rank 3"
    wide = parse_ext_element("1:[2];0:[1,4],[1]", ExtendedCrystal(MultisegmentCrystal(4)))
    with pytest.raises(ValueError) as err:
        M3.to_weight(wide)
    assert str(err.value) == "segment [1,4] does not fit inside rank 3"
