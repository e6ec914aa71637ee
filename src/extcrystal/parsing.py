"""The one reader of the little text grammars used on the command line.

A text is comma-separated "k*item" terms.  ``counted_term`` compiles a
grammar's term into a pattern that never fails: a missing token matches
empty, after its whitespace, and marks its place.  A grammar reads a text
one match per term (``counted_terms``) and takes its integers from the
groups; at a fault ``refusal`` walks the same matches and names the first.
"""

from __future__ import annotations

import re

# every integer in the grammars: an optional sign and ASCII digits; int() also
# reads "١" and "1_0", and str.isdigit takes "²"
INT = re.compile(r"[+-]?[0-9]+")


class ParseError(ValueError):
    """Malformed text input, with the zero-based offset of the problem."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        self.message = message
        super().__init__(f"parse error at position {pos}: {message} (in {text!r})")


def counted_term(*tokens) -> tuple[re.Pattern, tuple]:
    """One "k*item" term and the comma after it, the item spelled by tokens, and its groups' labels.

    A token is INT or a literal; a tuple of tokens is optional, present when
    its first token, a literal, is.  ``\\s*`` stands before every token
    (``\\s`` and ``str.isspace`` agree on every code point), and a digit
    starts the count.  The groups are the count (None when absent), the '*',
    the item's start (right after '*', else at the first non-space
    character), one per required token of the item, and the end: ',' before
    a term, '' at the end of the text, None at a fault.  A missing token's
    group is '' and a present literal's None; labels say what each expects.
    """
    labels = ["an integer", "'*'", None]

    def spell(tokens) -> str:
        out = ""
        for token in tokens:
            if isinstance(token, tuple):
                out += rf"(?:\s*{re.escape(token[0])}{spell(token[1:])})?"
            else:
                labels.append("an integer" if token is INT else repr(token))
                out += rf"\s*({INT.pattern}|)" if token is INT else rf"\s*(?:{re.escape(token)}|())"
        return out

    item, end = spell(tokens), r"(?:(,|\Z)|)"
    for g, label in enumerate(labels, 1):
        if label not in ("an integer", None):  # a missing literal leaves the end unmatched
            end = rf"(?({g})|{end})"
    # a term starts the text or follows a comma, so no empty match trails the last
    return re.compile(rf"(?<![^,])\s*(?:(?=[0-9])({INT.pattern})\s*(?:\*|()))?(){item}\s*{end}"), tuple(labels)


def counted_terms(text: str, empty: tuple[str, ...], term: tuple):
    """The match of each term of text, in text order; none if text strips to one of empty."""
    return () if text.strip() in empty else term[0].finditer(text)


def refusal(text: str, term: tuple, item, noun: str) -> ParseError | None:
    """The ParseError of the first fault in text, in text order; None if it has none.

    ``item`` takes the item's integers, an absent optional one left out, and
    raises the ValueError of a value its grammar refuses, reported at the
    item's start.  A count below 1 is "<noun> must be at least 1".
    """
    pattern, labels = term
    for m in pattern.finditer(text):
        ints = []
        for g, label in enumerate(labels, 1):
            found, at = m.group(g), m.start(g)
            if label is None:
                start = at
            elif found == "":
                return ParseError(text, at, f"expected {label}")
            elif found:
                try:
                    value = int(found)
                except ValueError:  # more digits than the interpreter converts
                    return ParseError(text, at, "integer has too many digits")
                if g > 1:
                    ints.append(value)
                elif value < 1:
                    return ParseError(text, at, f"{noun} must be at least 1")
        try:
            item(*ints)
        except ValueError as exc:
            return ParseError(text, start, str(exc))
        if m.group(len(labels) + 1) is None:
            return ParseError(text, m.end(), "expected ','")
    return None
