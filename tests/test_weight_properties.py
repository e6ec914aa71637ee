"""Property tests for node weights: the text grammar, the unchecked constructor, the operators."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from extcrystal.affine import AffineModel, HLNode, HLWeight, _sorted_weight, format_hl_weight, parse_hl_weight
from support import reference_moves

RANK = 4
MODEL = AffineModel(RANK)
BIG = 10**20 - 1  # the largest 20-digit coefficient

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def nodes(draw, max_i=RANK):
    i = draw(st.integers(1, max_i))
    return i, i + 1 + 2 * draw(st.integers(-40, 40))


coefficients = st.one_of(st.integers(1, 5), st.integers(1, BIG))
# (i, a) -> coefficient at distinct nodes
distinct_terms = st.dictionaries(nodes(), coefficients, max_size=8)


def canonical_text(merged):
    """The canonical form from its definition: terms sorted by (a, i), c* when c > 1, "0" when empty."""
    parts = [(f"{c}*" if c > 1 else "") + f"({i},{a})" for (i, a), c in sorted(merged.items(), key=lambda t: t[0][::-1])]
    return ",".join(parts) or "0"


@SETTINGS
@given(st.lists(st.tuples(nodes(max_i=9), coefficients), max_size=8))
def test_text_is_canonical_and_round_trips(terms):
    text = ",".join((f"{c}*" if c > 1 or k % 2 else "") + f"({i},{a})" for k, ((i, a), c) in enumerate(terms)) or "0"
    merged = {}
    for node, c in terms:
        merged[node] = merged.get(node, 0) + c
    lam = parse_hl_weight(text)
    out = format_hl_weight(lam)
    assert out == canonical_text(merged)
    assert parse_hl_weight(out) == lam
    assert format_hl_weight(parse_hl_weight(out)) == out


@SETTINGS
@given(distinct_terms)
def test_unchecked_weight_equals_the_validating_one(counts):
    checked = HLWeight(tuple((HLNode(i, a), c) for (i, a), c in counts.items()))
    unchecked = _sorted_weight([((a, i), c) for (i, a), c in counts.items()])
    assert unchecked == checked and hash(unchecked) == hash(checked)
    assert unchecked.terms == checked.terms
    assert all(type(p) is HLNode for p in unchecked.support())


@SETTINGS
@given(distinct_terms, st.integers(1, RANK), st.integers(-12, 12))
def test_node_operators_are_inverse(counts, i, k):
    lam = HLWeight.from_counts({HLNode(*node): c for node, c in counts.items()})
    assert MODEL.raising(MODEL.lowering(lam, i, k), i, k) == lam
    assert MODEL.lowering(MODEL.raising(lam, i, k), i, k) == lam


RANK8 = AffineModel(8)


@st.composite
def near_the_scan(draw):
    """(lam, i, k): a rank-8 weight on nodes of blocks k-2..k+2, so on the (i, k) scan, beside it or both."""
    i, k = draw(st.integers(1, 8)), draw(st.integers(-12, 12))
    pool = [p for j in range(k - 2, k + 3) for p in RANK8.block_nodes(j)]
    counts = draw(st.dictionaries(st.sampled_from(pool), coefficients, max_size=8))
    return HLWeight.from_counts(counts), i, k


@SETTINGS
@given(near_the_scan())
def test_node_operators_follow_the_dense_word(case):
    lam, i, k = case
    assert (RANK8.lowering(lam, i, k), RANK8.raising(lam, i, k)) == reference_moves(RANK8, lam, i, k)
