"""Property tests for the multisegment and slot-element text grammars."""

import pytest

pytest.importorskip("hypothesis")

import argparse

from hypothesis import example, given, settings
from hypothesis import strategies as st

from extcrystal import cli
from extcrystal.affine import parse_hl_weight
from extcrystal.extended import ExtendedCrystal, format_ext_element, parse_ext_element
from extcrystal.msegment import MultisegmentCrystal, format_multisegment, parse_multisegment
from extcrystal.parsing import ParseError, Scanner

RANK = 4
EXT = ExtendedCrystal(MultisegmentCrystal(RANK))
BIG = 10**20 - 1  # the largest 20-digit multiplicity

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=1000, deadline=None, derandomize=True, database=None)


@st.composite
def segments(draw, max_b=RANK):
    b = draw(st.integers(1, max_b))
    return draw(st.integers(1, b)), b


multiplicities = st.one_of(st.integers(1, 3), st.integers(1, BIG))
# (segment, multiplicity, whether a multiplicity of 1 is written "1*"); a
# small rank makes repeated segments common
terms = st.lists(st.tuples(segments(), multiplicities, st.booleans()), max_size=8)


def segment_text(a, b):
    return f"[{a}]" if a == b else f"[{a},{b}]"


def multisegment_text(drawn, empty):
    """The drawn terms in draw order, repeats kept; no terms gives the empty text drawn."""
    parts = [(f"{c}*" if c > 1 or one else "") + segment_text(a, b) for (a, b), c, one in drawn]
    return ",".join(parts) or empty


def canonical_multisegment(drawn):
    """The canonical form from its definition: repeats merged, ends descending, then starts ascending."""
    merged = {}
    for seg, c, _ in drawn:
        merged[seg] = merged.get(seg, 0) + c
    ordered = sorted(merged.items(), key=lambda t: (-t[0][1], t[0][0]))
    return ",".join((f"{c}*" if c > 1 else "") + segment_text(a, b) for (a, b), c in ordered) or "1"


@SETTINGS
@given(st.lists(st.tuples(segments(max_b=64), multiplicities, st.booleans()), max_size=8), st.sampled_from(["", "1"]))
def test_multisegment_text_is_canonical_and_round_trips(drawn, empty):
    m = parse_multisegment(multisegment_text(drawn, empty))
    out = format_multisegment(m)
    assert out == canonical_multisegment(drawn)
    assert parse_multisegment(out) == m


@SETTINGS
@given(st.dictionaries(st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)), st.tuples(terms, st.sampled_from(["", "1"])), max_size=4))
def test_slot_element_text_is_canonical_and_round_trips(slots):
    # the dictionary keeps the draw order, so the slots come in any order
    text = ";".join(f"{k}:{multisegment_text(drawn, empty)}" for k, (drawn, empty) in slots.items()) or "1"
    want = [(k, canonical_multisegment(drawn)) for k, (drawn, _) in slots.items() if drawn]
    c = parse_ext_element(text, EXT)
    out = format_ext_element(c)
    assert out == (";".join(f"{k}:{body}" for k, body in sorted(want, reverse=True)) or "1")
    assert parse_ext_element(out, EXT) == c


def parses_or_fails_inside(parse, text):
    try:
        parse(text)
    except ParseError as err:
        assert 0 <= err.pos <= len(text), (text, err.pos)


# "_", "²" and "١" are not digits of the grammar, though int() or str.isdigit takes them
alphabet_text = st.text(alphabet="[],*:;-0123456789 _²١", max_size=30)


@FUZZ
@given(alphabet_text)
@example("[59048]")
@example("[99999999999999999999]")
@example("2*[1,65],[1]")
@example("[١]")
@example("[²]")
def test_multisegment_parser_fails_only_with_a_parse_error_inside_the_text(text):
    parses_or_fails_inside(parse_multisegment, text)


@FUZZ
@given(alphabet_text)
@example("0:[59048]")
@example("0:[1,100000];1:[x]")
@example("99999999999999999999:[5]")
@example("1_0:[1]")
@example("٣:[1]")
def test_slot_element_parser_fails_only_with_a_parse_error_inside_the_text(text):
    parses_or_fails_inside(lambda t: parse_ext_element(t, EXT), text)


def test_a_parse_error_points_into_the_text():
    # whitespace before a slot's body keeps the error at the offending character
    for text, pos in (("0: [x]", 4), ("0:   [1],[y]", 10), (" 1 : [1] ; 0 :  [z]", 17)):
        with pytest.raises(ParseError) as err:
            parse_ext_element(text, EXT)
        assert err.value.pos == pos
    # an integer with more digits than int() converts is refused where it starts
    for text, pos in (("9" * 5000 + "*[1]", 0), ("[1],[" + "9" * 5000 + "]", 5)):
        with pytest.raises(ParseError, match="integer has too many digits") as err:
            parse_multisegment(text)
        assert err.value.pos == pos
    for text, pos in (("9" * 5000 + ":[1]", 0), ("0:[1];" + "9" * 5000 + ":[1]", 6)):
        with pytest.raises(ParseError, match="invalid slot index") as err:
            parse_ext_element(text, EXT)
        assert err.value.pos == pos


def test_integers_are_ascii_digits():
    # str.isdigit takes "١" (Arabic-Indic one) and "²", and int() takes both
    # "١" and the "_" of "1_0"; the grammars take 0-9 and their sign only
    for parse, text, pos in (
        (parse_multisegment, "[١]", 1),
        (parse_multisegment, "[²]", 1),
        (parse_multisegment, "[1,٣]", 3),
        (parse_hl_weight, "(١,٠)", 1),
        (parse_hl_weight, "(1,-٠)", 3),
    ):
        with pytest.raises(ParseError, match="expected an integer") as err:
            parse(text)
        assert err.value.pos == pos
    for text, pos in (("1_0:[1]", 0), ("٣:[1]", 0), ("0:[1];+1_0:[2]", 6)):
        with pytest.raises(ParseError, match="invalid slot index") as err:
            parse_ext_element(text, EXT)
        assert err.value.pos == pos
    assert parse_ext_element(" +3 :[1];-3:[2]", EXT) == parse_ext_element("3:[1];-3:[2]", EXT)


def scanned_int(text):
    """The value of text read by Scanner.take_int as one whole token, or None."""
    sc = Scanner(text)
    try:
        value = sc.take_int()
    except ParseError:
        return None
    return value if sc.eof() else None


def slot_index(text):
    """The value of text read as the slot index of a slot element, or None."""
    try:
        return parse_ext_element(f"{text}:[1]", EXT)[0][0]
    except ParseError as err:
        assert (err.pos, err.message) == (0, f"invalid slot index {text.strip()!r}")
        return None


def argument_int(text):
    """The value of text read as an integer command-line argument, or None."""
    try:
        return cli._int_type(text)
    except argparse.ArgumentTypeError:
        return None


@FUZZ
@given(st.text(alphabet="+-0123456789١²_ ", max_size=12))
@example("9" * 5000)
@example("-9" + "0" * 4299)
@example(" +07 ")
@example("1_0")
@example("+-1")
def test_the_integer_readers_take_the_same_strings(text):
    value = scanned_int(text)
    assert slot_index(text) == value
    assert argument_int(text) == value
