"""Property tests for the multisegment, slot-element and node-weight text grammars."""

import pytest

pytest.importorskip("hypothesis")

import argparse
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from extcrystal import cli
from extcrystal.affine import parse_hl_weight
from extcrystal.extended import ExtendedCrystal, format_ext_element, parse_ext_element
from extcrystal.msegment import MultisegmentCrystal, format_multisegment, parse_multisegment
from extcrystal.parsing import INT, ParseError, counted_term, refusal
from scanned_grammars import ScannedCrystal, _scanned_hl_weight, _scanned_multisegment

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


INT_TERM = counted_term("<", INT, ">")


def term_int(text):
    """The value of text read by the grammars' reader as the integer of the term "<text>", or None."""
    values = []
    return None if refusal(f"<{text}>", INT_TERM, values.append, "count") else values[0]


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
    value = term_int(text)
    assert slot_index(text) == value
    assert argument_int(text) == value


SCANNED_EXT = ExtendedCrystal(ScannedCrystal(RANK))


def outcome(parse, text):
    """("value", the parsed value) or ("refused", exception type, position, message)."""
    try:
        return "value", parse(text)
    except ParseError as err:
        return "refused", type(err), err.pos, err.message
    except ValueError as err:
        return "refused", type(err), None, str(err)


def assert_same_outcome(matched, scanned, text):
    got, want = outcome(matched, text), outcome(scanned, text)
    assert got == want, (text, got, want)
    if got[0] == "value":
        # equal tuples of another type would compare equal too
        assert type(got[1]) is type(want[1]), text


spaces = st.sampled_from(["", "", " ", "\t", "\u3000"])
# mostly integers the grammars take, written in every way they allow
numbers = st.sampled_from(["1", "1", "2", "3", "4", "007", "+1", "+02", "1", "2", "0", "-0", "-3", "65"])


@st.composite
def counted_texts(draw, opening, closing, items):
    """Comma-joined "k*item" terms, spaced and with small integers; now and then a stray character.

    ``items`` draws an item's integers as text.  Such texts are mostly
    accepted, which the alphabets alone seldom give.
    """
    parts = []
    for t in range(draw(st.integers(1, 4))):
        if t:
            parts.append(",")
        if draw(st.booleans()):
            parts += [draw(spaces), draw(numbers), draw(spaces), "*"]
        parts += [draw(spaces), opening]
        for k, x in enumerate(draw(items)):
            parts += [",", draw(spaces), x, draw(spaces)] if k else [draw(spaces), x, draw(spaces)]
        parts += [closing, draw(spaces)]
    if draw(st.integers(0, 3)) == 0:
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from([",", "*", opening, closing, "x", "²"])))
    return "".join(parts)


segment_terms = counted_texts("[", "]", st.lists(numbers, min_size=1, max_size=2))
node_pairs = st.lists(numbers, min_size=2, max_size=2)
# a node's coordinates differ by an odd number three times in four
node_terms = counted_texts("(", ")", st.one_of(node_pairs.filter(lambda p: (int(p[0]) - int(p[1])) % 2), node_pairs))
node_text = st.text(alphabet="(),*-+0123456789 _²١", max_size=30)
slot_text = st.text(alphabet="[],*:;-+0123456789 \t_²١", max_size=30)

SPACED = " \t 3 \n * \u3000 [ \u2028 +1 \x1c , \x85 004 \xa0 ] \u205f , [ 2 ] \r\f"
DIGITS = "9" * 5000


@FUZZ
@given(st.one_of(alphabet_text, segment_terms))
@example(SPACED)
@example("+1*[1]")
@example("[+1,-0]")
@example("[+1,+007],007*[+02,4]")
@example("0*[1]")
@example("00*[2]")
@example("[2,1]")
@example("[1,65]")
@example("[1,64]")
@example(DIGITS + "*[1]")
@example("[1]," + DIGITS + "*[1]")
@example("[1],")
@example("[1],,[2]")
@example(",,")
@example(" 1 ")
@example("2 [1]")
def test_matched_multisegments_are_the_scanned_ones(text):
    assert_same_outcome(parse_multisegment, _scanned_multisegment, text)
    assert_same_outcome(EXT.crystal.parse, SCANNED_EXT.crystal._scanned, text)


@FUZZ
@given(st.one_of(node_text, node_terms))
@example(" \t 3 \n * \u3000 ( \u2028 +1 \x1c , \x85 -0 \xa0 ) \u205f , ( 2 , 007 ) \r\f")
@example("(+1,-0),007*(+2,-003)")
@example("0*(1,0)")
@example("(2,0)")
@example("(0,1)")
@example("(1,0),(1,0),2*(1,0)")
@example(DIGITS + "*(1,0)")
@example("(1," + DIGITS + ")")
@example("(1,0),")
@example("(1,0),,(1,2)")
@example(",,")
@example(" 0 ")
def test_matched_node_weights_are_the_scanned_ones(text):
    assert_same_outcome(parse_hl_weight, _scanned_hl_weight, text)


@FUZZ
@given(st.one_of(slot_text, st.tuples(segment_terms, segment_terms).map(lambda t: f"1:{t[0]};0:{t[1]}")))
@example(" 1 :" + SPACED + "; 0 : \t [ 4 ] ")
@example("0:+1*[+1,-0]")
@example("0:0*[1];1:[2,1]")
@example("0:[1,5]")
@example("0:[1,65]")
@example("0:" + DIGITS + "*[1]")
@example("0:[1],")
@example("0:,,")
def test_matched_slot_elements_are_the_scanned_ones(text):
    assert_same_outcome(lambda t: parse_ext_element(t, EXT), lambda t: parse_ext_element(t, SCANNED_EXT), text)


def short_texts(alphabet, longest=5):
    """Every text over alphabet of at most longest characters."""
    return ["".join(t) for size in range(longest + 1) for t in product(alphabet, repeat=size)]


def test_every_short_text_reads_as_the_scanner_reads_it():
    # every refusal state of a short term, in both grammars; the fuzz draws only some
    for text in short_texts("[],*10- "):
        assert_same_outcome(parse_multisegment, _scanned_multisegment, text)
        assert_same_outcome(EXT.crystal.parse, SCANNED_EXT.crystal._scanned, text)
    for text in short_texts("(),*012- "):
        assert_same_outcome(parse_hl_weight, _scanned_hl_weight, text)
