"""Exhaustive and randomized generation of desk-scale test elements."""

from __future__ import annotations

from _random import Random
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .extended import ExtElement, ExtendedCrystal, _from_slots
from .msegment import Multisegment, Segment, _index
from .rootdata import check_rank


def all_segments(n: int) -> list[Segment]:
    return [Segment(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def multisegments_by_height(n: int, max_ht: int) -> list[list[Multisegment]]:
    """All multisegments inside rank n grouped by height 0..max_ht."""
    segs = all_segments(n)
    # multiplicity tuples over segs, grown one segment at a time, each with
    # the height it has used
    partial: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for seg in segs:
        partial = [
            (mults + (count,), used + count * seg.height)
            for mults, used in partial
            for count in range((max_ht - used) // seg.height + 1)
        ]
    groups: list[list[Multisegment]] = [[] for _ in range(max_ht + 1)]
    for mults, used in partial:
        groups[used].append(Multisegment.from_counts(zip(segs, mults)))
    for g in groups:
        g.sort(key=str)
    return groups


def iter_multisegments(n: int, max_ht: int) -> Iterator[Multisegment]:
    for group in multisegments_by_height(n, max_ht):
        yield from group


def _check_bounds(window: tuple[int, int], max_ht: int) -> None:
    """Refuse an empty slot window or a negative height bound: the rule of every bounded walk."""
    if window[0] > window[1]:
        raise ValueError(f"empty slot window {window[0]}..{window[1]}")
    if max_ht < 0:
        raise ValueError("height bound must be non-negative")


def iter_ext_elements(ext: ExtendedCrystal, window: tuple[int, int], max_ht: int) -> Iterator[ExtElement]:
    """All elements with support inside the window and total height at most max_ht.

    The lowest slot varies slowest; each slot runs through the multisegments
    by height, then in text order.
    """
    _check_bounds(window, max_ht)
    kmin, kmax = window
    groups = multisegments_by_height(ext.n, max_ht)
    flat = [m for g in groups for m in g]
    heights = [h for h, g in enumerate(groups) for _ in g]
    fits = list(accumulate(len(g) for g in groups))  # fits[h]: how many have height <= h
    slots = range(kmin, kmax + 1)
    picks = [0] * len(slots)  # index into flat per slot; 0 is the empty multisegment
    used = 0
    while True:
        yield ext.element({k: flat[p] for k, p in zip(slots, picks) if p})
        # advance the highest slot whose next pick fits the height left by the
        # slots below it, and empty the slots above it
        for j in reversed(range(len(picks))):
            used -= heights[picks[j]]
            if picks[j] + 1 < fits[max_ht - used]:
                picks[j] += 1
                used += heights[picks[j]]
                break
            picks[j] = 0
        else:
            return


def count_ext_elements(n: int, window: tuple[int, int], max_ht: int) -> int:
    """Independent size oracle: polynomial arithmetic instead of enumeration.

    The per-slot counting series is a product of geometric series, one per
    segment, graded by height; the window raises it to the number of slots.
    """
    _check_bounds(window, max_ht)
    width = window[1] - window[0] + 1
    per_slot = [0] * (max_ht + 1)
    per_slot[0] = 1
    for seg in all_segments(n):
        h = seg.height
        for d in range(h, max_ht + 1):
            per_slot[d] += per_slot[d - h]
    total = [0] * (max_ht + 1)
    total[0] = 1
    for _ in range(width):
        new = [0] * (max_ht + 1)
        for d1, c1 in enumerate(total):
            for d2 in range(max_ht + 1 - d1):
                new[d1 + d2] += c1 * per_slot[d2]
        total = new
    return sum(total)


def below(rng: Random, n: int) -> int:
    """A uniform draw from range(n), n >= 1: what randrange(n) returns, from the same words.

    k-bit words, k = n.bit_length(), are redrawn until one is below n, so
    ``below(rng, 1)`` still takes a word and ``below(rng, 2)`` takes 2-bit
    words and rejects 2 and 3, where ``getrandbits(1)`` would take one bit;
    an empty range is refused before a word is taken, as randrange(0) is.
    Every seeded draw here and in ``verify`` calls it, or applies its rule
    inline in a per-slot, per-segment or per-sign loop whose range cannot be
    empty, or calls rng.random(): both are methods of the Mersenne Twister core
    ``_random.Random`` that ``random.Random`` extends, whose random() stream
    Python keeps across versions, unlike randrange's.
    """
    if n < 1:
        raise ValueError(f"empty range for below({n})")
    while (r := rng.getrandbits(n.bit_length())) >= n:
        pass
    return r


@lru_cache(maxsize=None)
def _draw_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per budget h = 0..n, the (position, height) of every segment of height <= h.

    Segments come in ``all_segments`` order, so a draw from row h picks what
    a draw from the segments that fit a budget of h picks.  A constant of the
    rank; a budget above n reads row n.  A rank outside 1..64 is refused here,
    on every call, so no draw can take words from an empty range(n).
    """
    check_rank(n)
    pool = [(_index(a, b), b - a + 1) for a in range(1, n + 1) for b in range(a, n + 1)]
    return tuple(tuple(s for s in pool if s[1] <= h) for h in range(n + 1))


def _draw(getrandbits, random, table, max_ht: int) -> tuple[Multisegment, int]:
    """A random multisegment and its height from one generator's bound methods and _draw_table(n).

    Its words follow ``below``'s rule inline, as the per-slot take of
    _draw_element does: the ranges are max_ht + 1 and len(fits), never empty.
    """
    while (budget := getrandbits((max_ht + 1).bit_length())) > max_ht:
        pass
    start, top = budget, len(table) - 1
    mults = [0] * (top * (top + 1) // 2)
    end = 0  # one past the last position drawn: the multiplicities end there
    while True:
        fits = table[budget if budget < top else top]
        if not fits or random() < 0.2:
            break
        while (pick := getrandbits(len(fits).bit_length())) >= len(fits):
            pass
        j, height = fits[pick]
        mults[j] += 1
        if j >= end:
            end = j + 1
        budget -= height
    del mults[end:]
    return tuple.__new__(Multisegment, mults), start - budget


def random_multisegment(rng: Random, n: int, max_ht: int) -> Multisegment:
    """Draw segments that fit the budget left, each step stopping with chance 0.2."""
    _check_bounds((0, 0), max_ht)  # the multisegments are the elements of one slot
    return _draw(rng.getrandbits, rng.random, _draw_table(n), max_ht)[0]


def random_ext_element(rng: Random, ext: ExtendedCrystal, window: tuple[int, int], max_ht: int) -> ExtElement:
    """Fill the window's slots from the lowest up out of one random height budget."""
    _check_bounds(window, max_ht)
    return _draw_element(rng, ext.n, window, max_ht)


def _draw_element(rng: Random, n: int, window: tuple[int, int], max_ht: int) -> ExtElement:
    """random_ext_element's draw on bounds already checked; _draw_table refuses a bad rank first."""
    table = _draw_table(n)
    budget = below(rng, max_ht + 1)
    getrandbits, random = rng.getrandbits, rng.random
    slots = ()
    for k in range(window[0], window[1] + 1):
        if budget <= 0:
            break
        while (take := getrandbits((budget + 1).bit_length())) > budget:
            pass
        if take:
            m, height = _draw(getrandbits, random, table, take)
            if height:
                slots = ((k, m),) + slots
                budget -= height
    return _from_slots(slots)  # distinct slots, none empty, in descending order: nothing to check
