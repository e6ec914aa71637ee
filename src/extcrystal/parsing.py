"""Shared helpers for the little text grammars used on the command line.

Accepted text is read one compiled match per term (``counted_term`` and
``matched_terms``), straight into what the caller builds.  Whatever the
match path does not accept goes through ``parse_counted``, whose ``Scanner``
names every refusal: its position and its message.
"""

from __future__ import annotations

import re

# every integer in the grammars: an optional sign and ASCII digits; int() also
# reads "١" and "1_0", and str.isdigit takes "²"
INT = re.compile(r"[+-]?[0-9]+")
# one integer of an item and the whitespace the Scanner skips around it, as one group
SPACED_INT = rf"\s*({INT.pattern})\s*"


class ParseError(ValueError):
    """Malformed text input, with the zero-based offset of the problem."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        self.message = message
        super().__init__(f"parse error at position {pos}: {message} (in {text!r})")


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


def counted_term(item: str) -> re.Pattern:
    """One "k*item" term of parse_counted's grammar and the comma after it, as one pattern.

    ``item`` is the item's regular expression.  Whitespace may stand wherever
    the Scanner skips it: regex ``\\s`` and ``str.isspace`` agree on every
    code point.  The count, like the Scanner's, is an integer that a digit
    starts.  The groups are the count (None when absent), the item's own, and
    the comma (None when the term ends the text).
    """
    return re.compile(rf"\s*(?:(?=[0-9])({INT.pattern})\s*\*)?\s*{item}\s*(?:(,)|\Z)")


def matched_terms(text: str, empty: tuple[str, ...], term: re.Pattern) -> list[tuple] | None:
    """The groups of each term of text, in text order; None unless every term matches.

    A text that strips to one of ``empty`` has no terms, as in parse_counted.
    On None the caller reads the text with parse_counted, which gives its
    value or names its refusal.
    """
    if text.strip() in empty:
        return []
    terms, pos, match = [], 0, term.match
    while True:
        m = match(text, pos)
        if m is None:
            return None
        groups = m.groups()
        terms.append(groups)
        if groups[-1] is None:
            return terms
        pos = m.end()
