"""Verification sweeps: every structural identity as an executable check.

Each suite enumerates (or samples, for the randomized ones) a space of cases
and returns a list of violation messages; an empty list is a pass.  Messages
quote elements in the same text grammar the command-line parsers accept, so
a counterexample can be replayed with the ``apply`` subcommand.

Suites are built from a deterministic item list plus a per-item check
function.  A check yields one ``(property, where)`` pair per violation, and
the runner alone writes it as the message ``property: n=N where``; checks
that compare operator expressions at every (i, k) of the window list
``(property, got, want)`` triples for ``_per_op``.  A sweep can fan out over
worker processes; results are re-assembled in item order, so output never
depends on scheduling.  Serial and parallel sweeps take the same path, and
``jobs`` only says how many processes run the checks, at most one per CPU.
A worker that dies ends the sweep with ``BrokenProcessPool`` instead of
waiting for its results.  A group (``ext-properties``) names member suites
instead of a check and reports their violations one suite after another.

The items of a randomized suite are case indices, and its draw turns an
index into a case.  A check is a pure function of the part of the case it
reads, so a sweep checks each distinct part once and repeats its violations
at every draw of it: every draw is still counted and reported, in draw
order.  A suite may name its space, the exact size of a set that holds
every case its draw can return (for ``crystal-axioms``, the multisegments
of rank n up to the height bound).  The sweep draws lazily; once its
distinct draws number the space, it checks them, and if none fails it stops
drawing, because the rest of the draws could only repeat passing cases.
Otherwise it draws the rest, so the output is the same either way.  A sweep
whose distinct parts all pass returns at once, without walking its draws.
``bilinear`` reads the (c, i, k) of ``shift-covariance``'s case
(c, i, k, t), so the two share a draw, and a run draws once for consecutive
suites with the same draw.  What a sweep remembers dies with it.
``reduce-confluence`` has no draw: its check keeps drawing from the case
generator after the word, so two equal words are not equal cases.

The knobs of a run are one ``SweepConfig``, a named tuple that checks its
window, height bound, seed and case count when built or replaced, and
pickles for the workers.
``run_all(cfg, names)`` is the one runner: it yields each named suite's
size and violations.  The size is the length of the list the suite swept,
and suites listed next to each other with the same item function sweep one
list, so no list is built twice in a run and only one is live at a time.
"""

from __future__ import annotations

import functools
import os
from _random import Random
from typing import Callable, NamedTuple

from .affine import AffineModel, HLNode, HLWeight, format_hl_weight
from .enumeration import (
    _check_bounds,
    _draw_element,
    below,
    count_ext_elements,
    iter_ext_elements,
    random_multisegment,
)
from .exploration import explore
from .extended import HIGHEST, ExtElement, ExtendedCrystal, format_ext_element
from .invariants import d_invariant, pairing_read
from .msegment import Multisegment, format_multisegment
from .rootdata import CartanA
from .signature import expand, reduce_runs, signs
from .sl2 import Sl2Crystal, explicit_lowering


class _Knobs(NamedTuple):
    n: int
    window: tuple[int, int] = (-2, 2)
    max_ht: int = 4
    seed: int = 0
    cases: int = 10000
    jobs: int = 1


class SweepConfig(_Knobs):
    """Knobs shared by all suites; individual suites read what they need."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SweepConfig":
        cfg = super().__new__(cls, *args, **kwargs)
        _check_bounds(cfg.window, cfg.max_ht)
        if not 0 <= cfg.seed < 2**64:
            # the case generator seeds with |seed|, so -s would replay the cases of s
            raise ValueError("seed must fit in 64 unsigned bits")
        if cfg.cases < 0:
            raise ValueError("case count must be non-negative")
        return cfg

    @classmethod
    def _make(cls, values) -> "SweepConfig":
        # _replace builds through _make, so a replaced config is checked too
        return cls(*values)


@functools.lru_cache(maxsize=None)
def _affine(n: int) -> AffineModel:
    """The one model of rank n; suites read its ``crystal`` and ``ext`` too."""
    return AffineModel(n)


def _case_rng(cfg: SweepConfig, idx: int) -> Random:
    """Case idx's generator: the Mersenne Twister core that ``random.Random`` extends, seeded alike.

    The draws take ``getrandbits`` words through ``below``, which refuses an empty range, or by its
    rule inline in their per-slot loops, and call ``random()``: core methods, so no Python layer runs.
    """
    return Random(cfg.seed * 0x9E3779B1 + idx)


def _ops(cfg: SweepConfig):
    lo, hi = cfg.window
    for k in range(lo, hi + 1):
        for i in range(1, cfg.n + 1):
            yield i, k


def _elem(fmt: Callable, x) -> Callable[[], str]:
    """The text ``elem='…'`` of x in fmt's grammar, built when called: only a failed check reads it."""
    return lambda: f"elem={fmt(x)!r}"


def _per_op(cfg: SweepConfig, where: Callable[[], str], props):
    """(property, "i=I k=K " + where()) for each failed comparison of the window's operators.

    props(i, k) yields (property, got, want) triples, and one with got != want
    fails.  The operators come in ``_ops`` order, each one's triples in props' order.
    """
    for i, k in _ops(cfg):
        for prop, got, want in props(i, k):
            if got != want:
                yield prop, f"i={i} k={k} {where()}"


# ----------------------------------------------------------------------
# multisegment level


def _draw_multisegment(cfg: SweepConfig, idx: int) -> Multisegment:
    return random_multisegment(_case_rng(cfg, idx), cfg.n, cfg.max_ht)


def _multisegment_space(cfg: SweepConfig) -> int | None:
    """How many multisegments of rank n have height <= max_ht: every one the draw can return.

    None when cfg.cases draws cannot cover them, because r*[1] for r = 0..max_ht
    alone are max_ht + 1 of them; so a large height bound costs no count.
    """
    if cfg.max_ht >= cfg.cases:
        return None
    # the elements of a one-slot window are the multisegments
    return count_ext_elements(cfg.n, (0, 0), cfg.max_ht)


def _check_crystal_axioms(cfg: SweepConfig, m: Multisegment):
    cry = _affine(cfg.n).crystal
    at = _elem(format_multisegment, m)
    w = cry.weight(m)
    # the plain and the starred family obey the same axioms
    families = (
        ("", cry.lowering, cry.raising, cry.epsilon),
        ("star-", cry.star_lowering, cry.star_raising, cry.epsilon_star),
    )
    # (epsilon, lowering, raising) of m per family and index, for the star checks
    reads = {}
    for i in cry.indices():
        lowered = w - cry.lattice.alpha(i)
        for family, lower, lift, eps in families:
            e0 = eps(m, i)
            f = lower(m, i)
            e = lift(m, i)
            steps, cur = 0, e
            while cur is not None:
                steps += 1
                cur = lift(cur, i)
            reads[family, i] = e0, f, e
            for prop, got, want in (
                ("raise-of-lower", lift(f, i), m),
                ("lower-counter-step", eps(f, i), e0 + 1),
                ("lower-weight-step", cry.weight(f), lowered),
                ("raise-definedness", e is None, e0 == 0),
                ("lower-of-raise", m if e is None else lower(e, i), m),
                ("raise-string-length", steps, e0),
            ):
                if got != want:
                    yield family + prop, f"i={i} {at()}"

    st = cry.star(m)
    if cry.star(st) != m:
        yield "star-involution", at()
    if cry.weight(st) != w:
        yield "star-weight", at()
    for i in cry.indices():
        eps, low, rai = reads["", i]
        for prop, got, want in (
            ("star-counter-swap", reads["star-", i][0], cry.epsilon(st, i)),
            ("star-lower-conjugation", cry.star(low), cry.star_lowering(st, i)),
            # the raising path that defines star may take any index that admits a raise
            ("star-branch-free", cry.star_lowering(cry.star(rai), i) if eps > 0 else st, st),
        ):
            if got != want:
                yield prop, f"i={i} {at()}"


def cancel_in_random_order(word: list, rng: Random) -> list:
    """Reference cancellation: delete random adjacent (+, -) pairs until none remain."""
    work = list(word)
    while True:
        pairs = [j for j in range(len(work) - 1) if work[j][0] == "+" and work[j + 1][0] == "-"]
        if not pairs:
            return work
        j = pairs[below(rng, len(pairs))]
        del work[j : j + 2]


def _check_reduce_confluence(cfg: SweepConfig, idx: int):
    rng = _case_rng(cfg, idx)
    getrandbits, random = rng.getrandbits, rng.random
    length = below(rng, 2 * cfg.max_ht + 5)
    # below's rule for range(2), one sign per loop: 2-bit words, 2 and 3 rejected, as randrange(2)
    # does; getrandbits(1) would draw other signs from the same seed
    word = ""
    while len(word) < length:
        if (sign := getrandbits(2)) < 2:
            word += "+-"[sign]
    # alternating counts, minus first; some stretches of equal signs are split
    # by a zero count of the other sign, so that zeros sit among the counts
    counts: list[int] = []
    for sign in word:
        parity = int(sign == "+")
        if counts and (len(counts) - 1) & 1 == parity and random() < 0.5:
            counts[-1] += 1
            continue
        if len(counts) & 1 != parity:
            counts.append(0)
        counts.append(1)
    survivors = cancel_in_random_order(expand(counts), rng)
    minus = [at for sign, at in survivors if sign == "-"]
    plus = [at for sign, at in survivors if sign == "+"]
    if reduce_runs(counts) != (len(minus), len(plus), minus[-1] if minus else None, plus[0] if plus else None):
        yield "reduce-confluence", f"sig={word!r}"
    if signs(survivors) != "-" * len(minus) + "+" * len(plus):
        yield "reduce-shape", f"sig={word!r}"


# ----------------------------------------------------------------------
# extended level


def _items_ext(cfg: SweepConfig) -> list[ExtElement]:
    return list(iter_ext_elements(_affine(cfg.n).ext, cfg.window, cfg.max_ht))


def _check_inverse_pairs(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext

    def props(i, k):
        yield "raise-of-lower", ext.raising(ext.lowering(c, i, k), i, k), c
        yield "lower-of-raise", ext.lowering(ext.raising(c, i, k), i, k), c
        yield "star-raise-of-lower", ext.star_raising(ext.star_lowering(c, i, k), i, k), c
        yield "star-lower-of-raise", ext.star_lowering(ext.star_raising(c, i, k), i, k), c

    yield from _per_op(cfg, _elem(format_ext_element, c), props)


def _check_counters(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext
    cry = ext.crystal
    at = _elem(format_ext_element, c)

    def props(i, k):
        sel = ext.branch_selector(c, i, k)
        yield "lower-selector-step", ext.branch_selector(ext.lowering(c, i, k), i, k), sel + 1
        yield "raise-selector-step", ext.branch_selector(ext.raising(c, i, k), i, k), sel - 1
        ssel = ext.star_branch_selector(c, i, k)
        yield "star-lower-selector-step", ext.star_branch_selector(ext.star_lowering(c, i, k), i, k), ssel + 1
        yield "star-raise-selector-step", ext.star_branch_selector(ext.star_raising(c, i, k), i, k), ssel - 1

    yield from _per_op(cfg, at, props)
    if len(c) == 1:
        k0, b = c[0]
        for i in cry.indices():
            if ext.lowering(c, i, k0) != ext.inject(cry.lowering(b, i), k0):
                yield "slot-embedding-lower", f"i={i} k={k0} {at()}"
            if cry.epsilon(b, i) > 0 and ext.raising(c, i, k0) != ext.inject(cry.raising(b, i), k0):
                yield "slot-embedding-raise", f"i={i} k={k0} {at()}"
            if ext.star_lowering(c, i, k0) != ext.inject(cry.star_lowering(b, i), k0):
                yield "slot-embedding-star-lower", f"i={i} k={k0} {at()}"
            if cry.epsilon_star(b, i) > 0 and ext.star_raising(c, i, k0) != ext.inject(cry.star_raising(b, i), k0):
                yield "slot-embedding-star-raise", f"i={i} k={k0} {at()}"


def _check_weights(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext
    w = ext.weight(c)
    ht = ext.total_height(c)

    def props(i, k):
        alpha = ext.lattice.alpha(i)
        step = alpha if k % 2 else -alpha
        # height moves with the slot acted on: the k-branch edits slot k, the
        # other branch edits slot k+1 in the inverse direction
        sel = ext.branch_selector(c, i, k)
        f = ext.lowering(c, i, k)
        yield "lower-weight-step", ext.weight(f), w + step
        yield "lower-height-step", ext.total_height(f), ht + (1 if sel >= 0 else -1)
        e = ext.raising(c, i, k)
        yield "raise-weight-step", ext.weight(e), w - step
        yield "raise-height-step", ext.total_height(e), ht + (-1 if sel > 0 else 1)

    yield from _per_op(cfg, _elem(format_ext_element, c), props)


def _check_star_identities(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext
    flipped = ext.star_flip(c)

    def props(i, k):
        star_lowered = ext.star_lowering(c, i, k)
        star_raised = ext.star_raising(c, i, k)
        # the first two hold by construction, and guard against a second copy of the bodies
        yield "star-lower-as-raise", star_lowered, ext.raising(c, i, k - 1)
        yield "star-raise-as-lower", star_raised, ext.lowering(c, i, k - 1)
        yield "selector-flip", ext.star_branch_selector(c, i, k), -ext.branch_selector(c, i, k - 1)
        yield "flip-conjugates-lower", star_lowered, ext.star_flip(ext.lowering(flipped, i, -k))
        yield "flip-conjugates-raise", star_raised, ext.star_flip(ext.raising(flipped, i, -k))

    yield from _per_op(cfg, _elem(format_ext_element, c), props)


def _check_star_flip(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext
    flipped = ext.star_flip(c)
    for prop, got, want in (
        ("flip-involution", ext.star_flip(flipped), c),
        ("flip-weight", ext.weight(flipped), ext.weight(c)),
        ("flip-height", ext.total_height(flipped), ext.total_height(c)),
    ):
        if got != want:
            yield prop, f"elem={format_ext_element(c)!r}"


def _check_shift_commutation(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext
    at = _elem(format_ext_element, c)
    w = ext.weight(c)
    images = {(i, k): (ext.lowering(c, i, k), ext.raising(c, i, k)) for i, k in _ops(cfg)}
    for t in (-2, -1, 1, 2):
        moved = ext.shift(c, t)
        if ext.shift(moved, -t) != c:
            yield "shift-inverse", f"t={t} {at()}"
        if ext.weight(moved) != (-w if t % 2 else w):
            yield "shift-weight", f"t={t} {at()}"

        def props(i, k):
            lowered, raised = images[i, k]
            yield "shift-commutes-lower", ext.shift(lowered, t), ext.lowering(moved, i, k + t)
            yield "shift-commutes-raise", ext.shift(raised, t), ext.raising(moved, i, k + t)

        yield from _per_op(cfg, lambda: f"t={t} {at()}", props)


def _check_connectedness(cfg: SweepConfig, c: ExtElement):
    ext = _affine(cfg.n).ext
    at = _elem(format_ext_element, c)
    path = ext.path_to_highest(c)
    if len(path) != ext.total_height(c):
        yield "path-length", at()
    cur = c
    for i, k in path:
        cur = ext.raising(cur, i, k)
    if not cur.is_highest():
        yield "path-reaches-highest", at()
    rebuilt = HIGHEST
    for i, k in reversed(path):
        rebuilt = ext.lowering(rebuilt, i, k)
    if rebuilt != c:
        yield "path-replay", at()


# ----------------------------------------------------------------------
# rank-one explicit oracle


_SL2_EXT = ExtendedCrystal(Sl2Crystal())


def _items_sl2(cfg: SweepConfig) -> range:
    lo, hi = cfg.window
    return range((cfg.max_ht + 1) ** (hi - lo + 1))


def _check_sl2(cfg: SweepConfig, code: int):
    lo, hi = cfg.window
    base = cfg.max_ht + 1
    entries: dict[int, int] = {}
    for k in range(lo, hi + 1):
        code, digit = divmod(code, base)
        if digit:
            entries[k] = digit
    c = ExtElement(tuple(entries.items()))
    for k in range(lo, hi + 1):
        got = dict(_SL2_EXT.lowering(c, 1, k))
        expect = {kk: v for kk, v in explicit_lowering(entries, k).items() if v}
        if got != expect:
            yield "sl2-oracle", f"k={k} elem={entries!r}"


# ----------------------------------------------------------------------
# affine level

# The window names the operator slots; elements may occupy one extra slot
# above it because a raising at the top slot writes to slot k+1.


def _items_affine(cfg: SweepConfig) -> list[ExtElement]:
    lo, hi = cfg.window
    return list(iter_ext_elements(_affine(cfg.n).ext, (lo, hi + 1), cfg.max_ht))


def _check_cr_commutation(cfg: SweepConfig, c: ExtElement):
    model = _affine(cfg.n)
    ext = model.ext
    lam = model.to_weight(c)

    def props(i, k):
        yield "conversion-commutes-lower", model.lowering(lam, i, k), model.to_weight(ext.lowering(c, i, k))
        yield "conversion-commutes-raise", model.raising(lam, i, k), model.to_weight(ext.raising(c, i, k))

    yield from _per_op(cfg, _elem(format_ext_element, c), props)


def _check_hl_inverse(cfg: SweepConfig, c: ExtElement):
    model = _affine(cfg.n)
    lam = model.to_weight(c)

    def props(i, k):
        yield "raise-of-lower", model.raising(model.lowering(lam, i, k), i, k), lam
        yield "lower-of-raise", model.lowering(model.raising(lam, i, k), i, k), lam

    yield from _per_op(cfg, _elem(format_hl_weight, lam), props)


def _check_dual_commutation(cfg: SweepConfig, c: ExtElement):
    model = _affine(cfg.n)
    shift = model.dual_shift_weight
    lam = model.to_weight(c)
    at = _elem(format_hl_weight, lam)
    for t in (-1, 1):
        if model.to_weight(model.ext.shift(c, t)) != shift(lam, t):
            yield "conversion-commutes-shift", f"t={t} {at()}"
    moved = shift(lam, 1)

    def props(i, k):
        yield "dual-shift-commutes-lower", shift(model.lowering(lam, i, k), 1), model.lowering(moved, i, k + 1)
        yield "dual-shift-commutes-raise", shift(model.raising(lam, i, k), 1), model.raising(moved, i, k + 1)

    yield from _per_op(cfg, at, props)


# (k, nodes, counts): a weight on the nodes of blocks k and k+1, by coefficient
_SigSeqItem = tuple[int, tuple[HLNode, ...], tuple[int, ...]]


def _items_sig_seq(cfg: SweepConfig) -> list[_SigSeqItem]:
    """Every weight of height <= max_ht on the nodes of blocks k and k+1, per k.

    The items of one k share one nodes tuple, so the list holds no weight
    objects; the check builds each weight when it runs.
    """
    model = _affine(cfg.n)
    items: list[_SigSeqItem] = []
    lo, hi = cfg.window
    for k in range(lo, hi + 1):
        nodes = model.block_nodes(k) + model.block_nodes(k + 1)
        # depth first, each weight before those that add units at nodes from
        # its last one on: (first node to add at, units left, coefficients)
        stack = [(0, cfg.max_ht, (0,) * len(nodes))]
        while stack:
            idx, budget, counts = stack.pop()
            items.append((k, nodes, counts))
            if budget:
                for j in reversed(range(idx, len(nodes))):
                    stack.append((j, budget - 1, counts[:j] + (counts[j] + 1,) + counts[j + 1 :]))
    return items


def _check_sig_seq(cfg: SweepConfig, item: _SigSeqItem):
    k, nodes, counts = item
    lam = HLWeight(tuple(zip(nodes, counts)))
    model = _affine(cfg.n)
    cry = model.crystal
    c = model.to_extended(lam)
    low, high = model.ext.slot(c, k), model.ext.slot(c, k + 1)
    coeffs = dict(lam)
    for i in range(1, cfg.n + 1):
        # the node word (a zero minus, then every position from 2n down),
        # closed by a zero plus, is the starred word of slot k+1 followed by
        # the plain word of slot k
        expect = [*cry.count_words(high, i)[1], *cry.count_words(low, i)[0]]
        if [0, *(coeffs.get(p, 0) for p in reversed(model.signature_nodes(i, k))), 0] != expect:
            yield "signature-concat", f"i={i} k={k} elem={format_hl_weight(lam)!r}"


# ----------------------------------------------------------------------
# invariants


def _items_root_axiom(cfg: SweepConfig) -> list[tuple[int, int]]:
    return [(i, k) for i in range(1, cfg.n + 1) for k in range(-5, 6)]


def _check_root_axiom(cfg: SweepConfig, item: tuple[int, int]):
    i, k = item
    ext = _affine(cfg.n).ext
    c = ext.inject(ext.crystal.lowering(ext.crystal.highest, i))
    if d_invariant(ext, c, i, k) != (1 if abs(k) == 1 else 0):
        yield "root-axiom", f"i={i} k={k} elem={format_ext_element(c)!r}"


def _items_duality_datum(cfg: SweepConfig) -> list[tuple[int, int, int]]:
    return [
        (i, j, k)
        for i in range(1, cfg.n + 1)
        for j in range(1, cfg.n + 1)
        if i != j
        for k in range(-5, 6)
    ]


def _check_duality_datum(cfg: SweepConfig, item: tuple[int, int, int]):
    i, j, k = item
    ext = _affine(cfg.n).ext
    c = ext.inject(ext.crystal.lowering(ext.crystal.highest, j))
    if d_invariant(ext, c, i, k) != (-CartanA(cfg.n).entry(i, j) if k == 0 else 0):
        yield "duality-datum", f"i={i} j={j} k={k}"


def _draw_shifted_query(cfg: SweepConfig, idx: int) -> tuple[ExtElement, int, int, int]:
    rng = _case_rng(cfg, idx)
    lo, hi = cfg.window
    c = _draw_element(rng, cfg.n, cfg.window, cfg.max_ht)  # refuses a bad rank before any word
    return c, 1 + below(rng, cfg.n), lo - 1 + below(rng, hi - lo + 3), below(rng, 7) - 3


def _unshifted(query: tuple[ExtElement, int, int, int]) -> tuple[ExtElement, int, int]:
    return query[:3]


def _check_bilinear(cfg: SweepConfig, query: tuple[ExtElement, int, int]):
    c, i, k = query
    read = pairing_read(_affine(cfg.n).ext, c, i, k)
    left, right = read.lambda_left(), read.lambda_right()
    for prop, got, want in (("bilinear", left + right, 2 * read.d_invariant()), ("parity", (left - right) % 2, 0)):
        if got != want:
            yield prop, f"i={i} k={k} elem={format_ext_element(c)!r}"


def _check_shift_covariance(cfg: SweepConfig, query: tuple[ExtElement, int, int, int]):
    c, i, k, t = query
    ext = _affine(cfg.n).ext
    read = pairing_read(ext, c, i, k)
    moved = pairing_read(ext, ext.shift(c, t), i, k + t)
    for prop, got, want in (
        ("shift-covariance-d", moved.d_invariant(), read.d_invariant()),
        ("shift-covariance-left", moved.lambda_left(), read.lambda_left()),
        ("shift-covariance-right", moved.lambda_right(), read.lambda_right()),
    ):
        if got != want:
            yield prop, f"i={i} k={k} t={t} elem={format_ext_element(c)!r}"


# ----------------------------------------------------------------------
# graph


def _check_graph_count(cfg: SweepConfig, _item: int):
    ext = _affine(cfg.n).ext
    graph = explore(ext, HIGHEST, cfg.window, cfg.max_ht)
    expect = count_ext_elements(cfg.n, cfg.window, cfg.max_ht)
    if len(graph.nodes) != expect:
        yield "graph-node-count", f"got={len(graph.nodes)} want={expect}"
    if set(graph.nodes) != set(iter_ext_elements(ext, cfg.window, cfg.max_ht)):
        yield "graph-node-set", "reachable set differs from enumeration"
    ids = graph.node_ids()
    nodes = graph.nodes
    for src, dst, i, k in graph.edges:
        if ids[ext.lowering(nodes[src], i, k)] != dst:
            yield "graph-edge", f"i={i} k={k} src={format_ext_element(nodes[src])!r}"
    again = explore(ext, HIGHEST, cfg.window, cfg.max_ht)
    if again.to_dot() != graph.to_dot():
        yield "graph-determinism", "repeated run differs"


# ----------------------------------------------------------------------
# registry and runner


def _items_cases(cfg: SweepConfig) -> range:
    return range(cfg.cases)


def _items_single(cfg: SweepConfig) -> range:
    return range(1)


class _Suite(NamedTuple):
    """A sweep: its item list, and the check run on each item (a group: member names).

    A randomized suite also has a draw, which turns an item (a case index)
    into a case, and may say which part of the case its check reads; the
    sweep checks each distinct part once.  It may also name its space:
    space(cfg) is the exact size of a set that holds every case the draw can
    return, or None when the draws cannot cover it.  Once that many distinct
    cases are drawn, the rest of the draws can only repeat them.
    """

    items: Callable
    check: Callable | tuple[str, ...]
    draw: Callable | None = None
    reads: Callable | None = None
    space: Callable | None = None


_SUITES = {
    "crystal-axioms": _Suite(_items_cases, _check_crystal_axioms, _draw_multisegment, space=_multisegment_space),
    # its check draws from the case generator after the word, so equal words
    # are not equal cases: no draw, every item is checked
    "reduce-confluence": _Suite(_items_cases, _check_reduce_confluence),
    "inverse-pairs": _Suite(_items_ext, _check_inverse_pairs),
    "counters": _Suite(_items_ext, _check_counters),
    "weights": _Suite(_items_ext, _check_weights),
    "star-identities": _Suite(_items_ext, _check_star_identities),
    "star-flip": _Suite(_items_ext, _check_star_flip),
    "shift-commutation": _Suite(_items_ext, _check_shift_commutation),
    "connectedness": _Suite(_items_ext, _check_connectedness),
    # a group over the same items: the seven suites above, one after another
    "ext-properties": _Suite(
        _items_ext,
        ("inverse-pairs", "counters", "weights", "star-identities", "star-flip", "shift-commutation", "connectedness"),
    ),
    "sl2": _Suite(_items_sl2, _check_sl2),
    "cr-commutation": _Suite(_items_affine, _check_cr_commutation),
    "hl-inverse": _Suite(_items_affine, _check_hl_inverse),
    "dual-commutation": _Suite(_items_affine, _check_dual_commutation),
    "sig-seq": _Suite(_items_sig_seq, _check_sig_seq),
    "root-axiom": _Suite(_items_root_axiom, _check_root_axiom),
    "duality-datum": _Suite(_items_duality_datum, _check_duality_datum),
    "bilinear": _Suite(_items_cases, _check_bilinear, _draw_shifted_query, _unshifted),
    "shift-covariance": _Suite(_items_cases, _check_shift_covariance, _draw_shifted_query),
    "graph-count": _Suite(_items_single, _check_graph_count),
}


def base_suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, cfg: SweepConfig) -> list[str]:
    """Run one suite and return its violations in enumeration order."""
    return next(run_all(cfg, (name,)))[2]


def _map(run, jobs: int, items):
    """run over items, in item order, on jobs processes, at most one per CPU.

    The pool starts all its workers at once, so jobs is capped at
    ``os.cpu_count()``.  A worker that dies raises BrokenProcessPool here
    instead of leaving the sweep waiting for its results.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and len(items) > 64:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(jobs) as pool:
            return list(pool.map(run, items, chunksize=max(1, len(items) // (jobs * 8))))
    return map(run, items)


def _violations(check, cfg: SweepConfig, case) -> list[str]:
    """check's findings on case as messages, each "property: n=N where"."""
    return [f"{prop}: n={cfg.n} {where}" for prop, where in check(cfg, case)]


class _Draws:
    """A draw over an item list, drawn as far as asked, in item order.

    ``cases`` holds the draws so far, equal cases as one object, and
    ``distinct`` each of them once, in first-drawn order.
    """

    def __init__(self, draw: Callable, cfg: SweepConfig, items) -> None:
        self.cases: list = []
        self.distinct: dict = {}
        self._rest = map(functools.partial(draw, cfg), items)

    def extend(self, stop: int | None = None) -> None:
        """Draw until stop distinct cases are held, or every item is drawn."""
        for case in self._rest:
            self.cases.append(self.distinct.setdefault(case, case))
            if len(self.distinct) == stop:
                return


def _sweep(suite: _Suite, cfg: SweepConfig, cases) -> list[str]:
    """The suite's violations over cases, in order, on cfg.jobs processes.

    The cases of a suite with a draw are its _Draws: the sweep checks each
    distinct part its check reads once, in first-drawn order, and repeats
    that part's violations at every draw of it, unless no part fails: then
    there is nothing to repeat.  When the distinct draws number the suite's
    space, every case the draw can return is drawn, so a passing sweep
    never makes the rest.  The other suites' cases are their items.
    """
    run = functools.partial(_violations, suite.check, cfg)
    if suite.draw is None:
        return [msg for batch in _map(run, cfg.jobs, cases) for msg in batch]
    space = suite.space(cfg) if suite.space is not None else None
    cases.extend(space)
    if len(cases.distinct) != space:
        cases.extend()
    reads = suite.reads or (lambda case: case)
    parts = list(dict.fromkeys(map(reads, cases.distinct)))
    found = dict(zip(parts, _map(run, cfg.jobs, parts)))
    if not any(found.values()):
        return []
    cases.extend()  # a covered space: the rest repeats checked cases
    return [msg for case in cases.cases for msg in found[reads(case)]]


def run_all(cfg: SweepConfig, names):
    """Yield (name, size, violations) for each named suite, in the order given.

    size is the length of the item list the suite swept.  Consecutive suites
    with the same item function sweep one list, and those among them with
    the same draw one list of drawn cases, so only one of each is live at a
    time.  A group reports its members' violations one suite after another,
    reusing the results of members already run.
    """
    done: dict[str, list[str]] = {}
    items_fn = items = draw = drawn = None
    for name in names:
        suite = _SUITES[name]
        if suite.items is not items_fn:
            items = draw = drawn = None  # drop the last lists before building the next
            items_fn, items = suite.items, suite.items(cfg)
        members = suite.check if isinstance(suite.check, tuple) else (name,)
        for member in members:
            if member in done:
                continue
            swept = _SUITES[member]
            if swept.draw is not None and swept.draw is not draw:
                draw, drawn = swept.draw, _Draws(swept.draw, cfg, items)
            done[member] = _sweep(swept, cfg, items if swept.draw is None else drawn)
        yield name, len(items), [msg for member in members for msg in done[member]]
