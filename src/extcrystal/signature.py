"""Plus/minus signature words and the cancellation rule every operator shares.

Every signature word in this package alternates between minus and plus
stretches, so a word is given as a flat sequence of counts in scan order:
minus, plus, minus, ... starting with a minus at index 0.  A word that opens
with a plus gets a leading 0; a zero count anywhere stands for an empty
stretch.  The index of a count records which object emitted it, so that after
cancellation the surviving symbols can be traced back to the segment or
lattice node that has to be edited.  Cancellation deletes adjacent (+, -)
pairs, in that order, until none remain; the result is independent of the
deletion order and always has the shape minuses-then-pluses.
"""

from __future__ import annotations


def reduce_runs(counts) -> tuple[int, int, int | None, int | None]:
    """Cancel all adjacent (+, -) pairs of a word given as alternating counts.

    Even indices of counts hold minus counts and odd indices plus counts.
    Returns (minus, plus, minus_at, plus_at): the numbers of surviving minus
    and plus symbols and the indices of the rightmost surviving minus and of
    the leftmost surviving plus, None where there is none.  A minus cancels
    the nearest plus on its left; a minus left over is never cancelled.
    """
    minus = plus = 0
    minus_at = plus_at = None
    at = -2
    it = iter(counts)
    for down in it:
        at += 2
        if down > plus:
            minus += down - plus
            minus_at = at
            plus = 0
        else:
            plus -= down
        up = next(it, 0)
        if up:
            if not plus:
                plus_at = at + 1
            plus += up
    return minus, plus, minus_at, plus_at if plus else None


def expand(counts) -> list[tuple[str, int]]:
    """The per-symbol word of alternating counts: one (sign, index) pair per symbol."""
    return [("+" if at & 1 else "-", at) for at, count in enumerate(counts) for _ in range(count)]


def signs(sig: list) -> str:
    """The bare sign word, indices or tags dropped."""
    return "".join(item[0] for item in sig)
