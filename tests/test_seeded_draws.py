"""Seeded draws take their words by ``below``'s rule, draw what the standard library's helpers drew, and refuse empty ranges."""

import hashlib
import random
from _random import Random

import pytest

import extcrystal.verify as verify
from extcrystal.enumeration import _draw, _draw_table, below, random_ext_element, random_multisegment
from extcrystal.extended import format_ext_element
from extcrystal.msegment import format_multisegment
from extcrystal.signature import reduce_runs
from extcrystal.verify import SweepConfig, _affine, _case_rng, _draw_shifted_query
from support import BoundedRng, reference_draw, reference_ext_element, reference_query
from test_verify import _FROZEN_CFG

_BOUNDS = (*range(1, 71), 2**40, 10**20)


def test_below_is_randrange_value_for_value_and_word_for_word():
    # n = 1 comes first: below(rng, 1) takes a word, as randrange(1) does
    for seed in range(200):
        mine, twin = random.Random(seed), random.Random(seed)
        assert [below(mine, n) for n in _BOUNDS] == [twin.randrange(n) for n in _BOUNDS], seed
        assert mine.getstate() == twin.getstate(), seed


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_below_refuses_an_empty_range_before_taking_a_word(n):
    rng = BoundedRng(1)
    with pytest.raises(ValueError, match=r"^empty range for below\(-?\d+\)$"):
        below(rng, n)
    assert rng.words == 0
    for real in (Random(1), random.Random(1)):
        state = real.getstate()
        with pytest.raises(ValueError, match="empty range"):
            below(real, n)
        assert real.getstate() == state


def test_draws_refuse_bad_bounds_before_taking_a_word():
    ext = _affine(3).ext
    refused = [
        (lambda rng: random_multisegment(rng, 3, -1), "height bound must be non-negative"),
        (lambda rng: random_ext_element(rng, ext, (0, 1), -2), "height bound must be non-negative"),
        (lambda rng: random_ext_element(rng, ext, (1, 0), 3), "empty slot window 1..0"),
        (lambda rng: random_multisegment(rng, 65, 3), "rank must be an integer between 1 and 64, got 65"),
        (lambda rng: random_multisegment(rng, 0, 3), "rank must be an integer between 1 and 64, got 0"),
    ]
    for draw, message in refused:
        rng = BoundedRng(1)
        with pytest.raises(ValueError) as caught:
            draw(rng)
        assert str(caught.value) == message
        assert rng.words == 0, message
    # the bounds next to the refused ones still draw, each from a single word
    for draw in (lambda rng: random_multisegment(rng, 3, 0), lambda rng: random_ext_element(rng, ext, (1, 1), 0)):
        rng = BoundedRng(1)
        assert not draw(rng)
        assert rng.words == 1


def _stdlib_twin(cfg, idx):
    """The standard library's generator, seeded as the case generator of case idx is."""
    return random.Random(cfg.seed * 0x9E3779B1 + idx)


@pytest.mark.parametrize("seed", [0, 1, 4, 2**64 - 1])
def test_the_case_generator_gives_the_stdlib_stream(seed):
    cfg = SweepConfig(n=1, seed=seed)
    for idx in (0, 1, 9999):
        rng, twin = _case_rng(cfg, idx), _stdlib_twin(cfg, idx)
        for k in (*range(1, 9), 32, 40, 67):
            assert rng.getrandbits(k) == twin.getrandbits(k), (idx, k)
        assert rng.random() == twin.random(), idx
        assert [below(rng, n) for n in _BOUNDS] == [twin.randrange(n) for n in _BOUNDS], idx
        assert rng.getstate() == twin.getstate()[1], idx


def _query_text(query):
    c, i, k, t = query
    return f"{format_ext_element(c)} {i} {k} {t}"


# sha256 prefixes of every case drawn at test_verify's _FROZEN_CFG, one line per case
_FROZEN_DIGESTS = {
    "crystal-axioms": "f601000e779a6134",
    "shift-covariance": "ea7a26676abfef59",
    "reduce-confluence counts": "316d767a6582a3d6",
    "reduce-confluence survivors": "ae9bb3e962e544be",
}


def test_every_drawn_case_is_as_recorded(monkeypatch):
    cfg = _FROZEN_CFG
    texts = {}
    # bilinear reads the (c, i, k) of shift-covariance's draw
    assert verify._SUITES["bilinear"].draw is verify._SUITES["shift-covariance"].draw
    for name, text in (("crystal-axioms", format_multisegment), ("shift-covariance", _query_text)):
        suite = verify._SUITES[name]
        texts[name] = [text(suite.draw(cfg, idx)) for idx in suite.items(cfg)]
    # reduce-confluence draws inside its check: record what it reduces and what survives
    counts, survivors = [], []
    texts["reduce-confluence counts"], texts["reduce-confluence survivors"] = counts, survivors
    cancel = verify.cancel_in_random_order

    def reading(word):
        counts.append(repr(word))
        return reduce_runs(word)

    def cancelling(word, rng):
        out = cancel(word, rng)
        survivors.append(repr(out))
        return out

    monkeypatch.setattr(verify, "reduce_runs", reading)
    monkeypatch.setattr(verify, "cancel_in_random_order", cancelling)
    assert verify.run_suite("reduce-confluence", cfg) == []
    assert len(counts) == len(survivors) == cfg.cases
    digests = {key: hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] for key, lines in texts.items()}
    assert digests == _FROZEN_DIGESTS


_CONFIGS = [
    SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=1),
    SweepConfig(n=8, window=(-2, 2), max_ht=40, seed=1),
    # budgets above the rank, several slots filled, and a window that runs out with budget left
    SweepConfig(n=2, window=(-3, 3), max_ht=9, seed=5),
]
_IDS = ["n3-ht3", "n8-ht40", "n2-wide"]


def _twins(cfg, idx):
    return _case_rng(cfg, idx), _stdlib_twin(cfg, idx)


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_IDS)
def test_multisegment_draws_match_the_reference(cfg):
    for idx in range(2000):
        rng, twin = _twins(cfg, idx)
        assert _draw(rng.getrandbits, rng.random, _draw_table(cfg.n), cfg.max_ht) == reference_draw(twin, cfg.n, cfg.max_ht), idx
        assert rng.getstate() == twin.getstate()[1], idx
        rng, twin = _twins(cfg, idx)
        assert random_multisegment(rng, cfg.n, cfg.max_ht) == reference_draw(twin, cfg.n, cfg.max_ht)[0], idx


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_IDS)
def test_ext_element_draws_match_the_reference(cfg):
    ext = _affine(cfg.n).ext
    for idx in range(2000):
        rng, twin = _twins(cfg, idx)
        got = random_ext_element(rng, ext, cfg.window, cfg.max_ht)
        assert got == reference_ext_element(twin, ext, cfg.window, cfg.max_ht), idx
        assert rng.getstate() == twin.getstate()[1], idx


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_IDS)
def test_pairing_queries_match_the_reference(cfg):
    ext = _affine(cfg.n).ext
    heights = set()
    for idx in range(2000):
        twin = _stdlib_twin(cfg, idx)
        c, i, k = reference_query(twin, ext, cfg.window, cfg.max_ht)
        assert _draw_shifted_query(cfg, idx) == (c, i, k, twin.randrange(-3, 4)), idx
        heights.add(ext.total_height(c))
    # the draws reach the height bound's range, not only small cases
    assert max(heights) >= min(cfg.max_ht, 20)
