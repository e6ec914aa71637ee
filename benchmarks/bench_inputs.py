"""Seeded inputs and independent reference arithmetic for the benchmark.

Nothing here imports extcrystal.  Inputs are produced as text in the
package's documented grammars, and the reference values the checks compare
against (simple roots, weights, the segment/node dictionary, suite sizes)
are computed here from their definitions, so a check does not lean on the
code it checks.

Conventions, as in the package: a segment [a,b] has weight
-(alpha_a + ... + alpha_b); the node (i, a) of rank n stands for the segment
of height i centred at a, and the dual shift sends (i, a) to
(n+1-i, a+n+1); a slot-k entry carries the sign (-1)^k.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from math import comb

# ----------------------------------------------------------------------
# root data


def alpha(n: int, i: int) -> tuple[int, ...]:
    """The simple root alpha_i in simple-root coordinates."""
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


def add(u: tuple[int, ...], v: tuple[int, ...], scale: int = 1) -> tuple[int, ...]:
    return tuple(a + scale * b for a, b in zip(u, v))


def segments_weight(n: int, segs, scale: int = 1) -> tuple[int, ...]:
    """Weight of a multiset of (a, b) segments, times scale."""
    coeffs = [0] * n
    for a, b in segs:
        for j in range(a, b + 1):
            coeffs[j - 1] -= scale
    return tuple(coeffs)


# ----------------------------------------------------------------------
# multisegments


def _seg_text(a: int, b: int) -> str:
    return f"[{a}]" if a == b else f"[{a},{b}]"


def multisegment_text(segs) -> str:
    """Text form of a multiset of (a, b) segments; "1" when empty."""
    counts = sorted(Counter(segs).items())
    return ",".join((f"{m}*" if m > 1 else "") + _seg_text(a, b) for (a, b), m in counts) or "1"


_SEG_RE = re.compile(r"(?:(\d+)\*)?\[(\d+)(?:,(\d+))?\]")


def parse_multisegment_text(text: str) -> list[tuple[int, int]]:
    """The (a, b) segments of a multisegment text, with repeats."""
    out: list[tuple[int, int]] = []
    for mult, a, b in _SEG_RE.findall(text):
        out.extend([(int(a), int(b or a))] * int(mult or 1))
    return out


def random_multisegment(rng: random.Random, n: int, height: int) -> list[tuple[int, int]]:
    """Segments of total height exactly `height`, lengths and starts uniform."""
    segs = []
    left = height
    while left:
        length = rng.randint(1, min(n, left))
        a = rng.randint(1, n - length + 1)
        segs.append((a, a + length - 1))
        left -= length
    return sorted(segs)


def stratified_multisegments(rng: random.Random, n: int, count: int, max_ht: int) -> list[list[tuple[int, int]]]:
    """`count` multisegments with heights cycling evenly through 1..max_ht.

    Repeats are redrawn a few times, so the set is distinct except where a
    low height has fewer elements than it is asked for.
    """
    heights = [1 + j % max_ht for j in range(count)]
    rng.shuffle(heights)
    seen: set[tuple] = set()
    out = []
    for h in heights:
        for _ in range(20):
            segs = random_multisegment(rng, n, h)
            if tuple(segs) not in seen:
                break
        seen.add(tuple(segs))
        out.append(segs)
    return out


# ----------------------------------------------------------------------
# the node lattice


def dual_shift(n: int, node: tuple[int, int], k: int) -> tuple[int, int]:
    i, a = node
    if k % 2:
        i = n + 1 - i
    return i, a + k * (n + 1)


def scan_nodes(n: int, i: int, k: int) -> list[tuple[int, int]]:
    """The 2n nodes the (i, k) operator reads, positions 1..2n in order."""
    out = []
    for j in range(1, n + 1):
        out.append(dual_shift(n, (j, 2 * (i - 1) + j - 1), k))
        out.append(dual_shift(n, (j, 2 * (i - 1) + j + 1), k))
    return out


def node_segment(n: int, node: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """((a, b), slot) of a node: the block is the k whose k-fold shift lands in block zero."""
    for k in range(node[1] // (n + 1) - 2, node[1] // (n + 1) + 3):
        i, a = dual_shift(n, node, -k)
        if i - 1 <= a <= 2 * n - 1 - i:
            return ((a - i + 3) // 2, (a + i + 1) // 2), k
    raise ValueError(f"node {node} lies in no block of rank {n}")


def segment_node(n: int, seg: tuple[int, int], k: int) -> tuple[int, int]:
    """Node of the segment [a,b] placed in slot k."""
    a, b = seg
    return dual_shift(n, (b - a + 1, b + a - 2), k)


def slotted_nodes(n: int, text: str) -> Counter:
    """Node counts of a slot element given in its "k:multisegment;..." text form."""
    out: Counter = Counter()
    if text != "1":
        for chunk in text.split(";"):
            k, _, body = chunk.partition(":")
            for seg in parse_multisegment_text(body):
                out[segment_node(n, seg, int(k))] += 1
    return out


def node_weight(n: int, terms) -> tuple[int, ...]:
    """Weight of a node sum given as ((i, a), c) terms; c may be negative."""
    total = (0,) * n
    for node, c in terms:
        seg, k = node_segment(n, node)
        total = add(total, segments_weight(n, [seg], -c if k % 2 else c))
    return total


def weight_text(terms) -> str:
    """Text form of a node sum; "0" when empty."""
    merged = Counter()
    for node, c in terms:
        merged[node] += c
    parts = [(f"{c}*" if c > 1 else "") + f"({i},{a})" for (i, a), c in sorted(merged.items())]
    return ",".join(parts) or "0"


_TERM_RE = re.compile(r"(?:(\d+)\*)?\((-?\d+),(-?\d+)\)")


def parse_weight_text(text: str) -> list[tuple[tuple[int, int], int]]:
    return [((int(i), int(a)), int(c or 1)) for c, i, a in _TERM_RE.findall(text)]


def few_node_weights(rng: random.Random, n: int, count: int, window: tuple[int, int], max_ht: int):
    """Node sums whose height sits on one to four scanned nodes.

    Input j has height 1 + j mod max_ht, support size 1 + (j div max_ht)
    mod 4, and spreads that height over nodes read by the operator
    (i, k) = j-th of the window's operators, so every seed makes the same mix
    of heights, support sizes and operators, and single coefficients reach
    the tens.  The seed picks the nodes and how the height is split.
    """
    ops = [(i, k) for k in range(window[0], window[1] + 1) for i in range(1, n + 1)]
    out = []
    for j in range(count):
        h, size, (i, k) = 1 + j % max_ht, 1 + (j // max_ht) % 4, ops[j % len(ops)]
        nodes = rng.sample(scan_nodes(n, i, k), min(size, h))
        cuts = sorted(rng.sample(range(1, h), len(nodes) - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [h])]
        out.append(list(zip(nodes, parts)))
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------------
# verify-all suite sizes


def multisegment_counts(n: int, max_ht: int) -> list[int]:
    """Number of multisegments of each height 0..max_ht in rank n.

    The generating function is the product over segment lengths L of
    (1 - x^L)^-(n+1-L), one geometric series per segment.
    """
    series = [1] + [0] * max_ht
    for length in range(1, n + 1):
        for _ in range(n + 1 - length):
            for d in range(length, max_ht + 1):
                series[d] += series[d - length]
    return series


def slotted_count(n: int, slots: int, max_ht: int) -> int:
    """Elements over `slots` slots with total height at most max_ht."""
    per_slot = multisegment_counts(n, max_ht)
    total = [1] + [0] * max_ht
    for _ in range(slots):
        total = [sum(total[d - e] * per_slot[e] for e in range(d + 1)) for d in range(max_ht + 1)]
    return sum(total)


EXT_SUITES = ("inverse-pairs", "counters", "weights", "star-identities", "star-flip",
              "shift-commutation", "connectedness", "ext-properties")
AFFINE_SUITES = ("cr-commutation", "hl-inverse", "dual-commutation")
VERIFY_SUITES = ("crystal-axioms", "reduce-confluence", *EXT_SUITES, "sl2", *AFFINE_SUITES,
                 "sig-seq", "root-axiom", "duality-datum", "bilinear", "shift-covariance", "graph-count")


def verify_all_sizes(n: int, window: tuple[int, int], max_ht: int, cases: int) -> dict[str, int]:
    """Item count of every suite of `verify all`, in the order it prints them."""
    width = window[1] - window[0] + 1
    sizes = {name: cases for name in ("crystal-axioms", "reduce-confluence", "bilinear", "shift-covariance")}
    sizes.update(dict.fromkeys(EXT_SUITES, slotted_count(n, width, max_ht)))
    # the affine suites enumerate one slot above the window
    sizes.update(dict.fromkeys(AFFINE_SUITES, slotted_count(n, width + 1, max_ht)))
    sizes["sl2"] = (max_ht + 1) ** width
    # multisets of at most max_ht nodes out of the n(n+1) nodes of two blocks
    sizes["sig-seq"] = width * comb(n * (n + 1) + max_ht, max_ht)
    sizes["root-axiom"] = 11 * n
    sizes["duality-datum"] = 11 * n * (n - 1)
    sizes["graph-count"] = 1
    return {name: sizes[name] for name in VERIFY_SUITES}
