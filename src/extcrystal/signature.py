"""Plus/minus signature words and the cancellation rule every operator shares.

A signature word is given as runs (sign, count, tag) in scan order, where
sign is "+" or "-" and count >= 0.  The tag records which object emitted the
run, so that after cancellation the surviving symbols can be traced back to
the segment or lattice node that has to be edited.  Cancellation deletes
adjacent (+, -) pairs, in that order, until none remain; the result is
independent of the deletion order and always has the shape
minuses-then-pluses.
"""

from __future__ import annotations


def reduce_runs(runs) -> tuple[int, int, object, object]:
    """Cancel all adjacent (+, -) pairs of a word given as runs.

    Returns (minus, plus, minus_tag, plus_tag): the numbers of surviving
    minus and plus symbols and the tags of the rightmost surviving minus and
    the leftmost surviving plus, None where there is none.  A minus cancels
    the nearest plus on its left; a minus left over is never cancelled.
    """
    minus = plus = 0
    minus_tag = plus_tag = None
    for sign, count, tag in runs:
        if sign == "+":
            if not plus:
                plus_tag = tag
            plus += count
        elif count > plus:
            minus += count - plus
            minus_tag = tag
            plus = 0
        else:
            plus -= count
    return minus, plus, minus_tag, plus_tag if plus else None


def expand(runs) -> list:
    """The per-symbol word of a run sequence: one (sign, tag) pair per symbol."""
    return [(sign, tag) for sign, count, tag in runs for _ in range(count)]


def signs(sig: list) -> str:
    """The bare sign word, tags dropped."""
    return "".join(item[0] for item in sig)
