"""The Scanner reader of the text grammars, kept as the oracle the grammars' reader is compared with.

It walks a text token by token with a cursor and names every refusal: its
position and its message.  ``tests/test_grammar_properties.py`` checks that
``parse_multisegment``, ``MultisegmentCrystal.parse``, ``parse_ext_element``
and ``parse_hl_weight`` give its values and its refusals.
"""

from __future__ import annotations

from extcrystal.affine import HLNode, HLWeight
from extcrystal.msegment import Multisegment, MultisegmentCrystal, Segment, _index
from extcrystal.parsing import INT, ParseError
from extcrystal.rootdata import MAX_RANK


class Scanner:
    """Minimal cursor over a string with position-tagged failures."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(self.text, self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def take_int(self) -> int:
        self.skip_ws()
        m = INT.match(self.text, self.pos)
        if not m:
            raise self.error("expected an integer")
        try:
            value = int(m.group())
        except ValueError:  # more digits than the interpreter converts
            raise self.error("integer has too many digits") from None
        self.pos = m.end()
        return value


def parse_counted(text: str, empty: tuple[str, ...], read_item, noun: str) -> list[tuple[object, int]]:
    """The (item, count) pairs of comma-separated "k*item" terms, in text order.

    The "k*" prefix is optional and k must be at least 1 ("<noun> must be at
    least 1").  A text that strips to one of ``empty`` has no terms.
    ``read_item`` reads one item off the scanner; a ValueError other than a
    ParseError that it raises is reported at the item's start.
    """
    if text.strip() in empty:
        return []
    sc = Scanner(text)
    pairs: list[tuple[object, int]] = []
    while True:
        count = 1
        if INT.match(sc.peek()):  # an unsigned count: a digit starts it
            at = sc.pos
            count = sc.take_int()
            if count < 1:
                raise ParseError(text, at, f"{noun} must be at least 1")
            sc.expect("*")
        at = sc.pos
        try:
            pairs.append((read_item(sc), count))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(text, at, str(exc)) from None
        if sc.eof():
            return pairs
        sc.expect(",")


class ScannedCrystal(MultisegmentCrystal):
    """A crystal whose parse reads through the Scanner alone."""

    def _scanned(self, text: str) -> Multisegment:
        """parse through the Scanner alone, which names every refusal."""
        pairs = parse_counted(text, ("", "1"), _read_segment, "multiplicity")
        if pairs:
            self._check_top(max(_index(seg.a, seg.b) for seg, _ in pairs))
        return Multisegment.from_counts(pairs)

    parse = _scanned


def _scanned_multisegment(text: str) -> Multisegment:
    """parse_multisegment through the Scanner alone, which names every refusal."""
    return Multisegment.from_counts(parse_counted(text, ("", "1"), _read_fitting_segment, "multiplicity"))


def _read_segment(sc: Scanner) -> Segment:
    sc.expect("[")
    a = sc.take_int()
    b = a
    if sc.peek() == ",":
        sc.expect(",")
        b = sc.take_int()
    sc.expect("]")
    return Segment(a, b)


def _read_fitting_segment(sc: Scanner) -> Segment:
    seg = _read_segment(sc)
    if seg.b > MAX_RANK:
        raise ValueError(f"segment {seg} does not fit inside rank {MAX_RANK}")
    return seg


def _scanned_hl_weight(text: str) -> HLWeight:
    """parse_hl_weight through the Scanner alone, which names every refusal."""
    return HLWeight(tuple(parse_counted(text, ("0",), _take_node, "coefficient")))


def _take_node(sc: Scanner) -> HLNode:
    sc.expect("(")
    i = sc.take_int()
    sc.expect(",")
    a = sc.take_int()
    sc.expect(")")
    return HLNode(i, a)
