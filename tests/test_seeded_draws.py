"""Seeded draws take their words through ``below``, and draw what the standard library's helpers drew."""

import random

import pytest

from extcrystal.enumeration import _draw, below, random_ext_element, random_multisegment
from extcrystal.verify import SweepConfig, _affine, _case_rng, _draw_shifted_query
from support import reference_draw, reference_ext_element, reference_query

_BOUNDS = (*range(1, 71), 2**40, 10**20)


def test_below_is_randrange_value_for_value_and_word_for_word():
    # n = 1 comes first: below(rng, 1) takes a word, as randrange(1) does
    for seed in range(200):
        mine, twin = random.Random(seed), random.Random(seed)
        assert [below(mine, n) for n in _BOUNDS] == [twin.randrange(n) for n in _BOUNDS], seed
        assert mine.getstate() == twin.getstate(), seed


_CONFIGS = [
    SweepConfig(n=3, window=(-1, 0), max_ht=3, seed=1),
    SweepConfig(n=8, window=(-2, 2), max_ht=40, seed=1),
]
_IDS = ["n3-ht3", "n8-ht40"]


def _twins(cfg, idx):
    return _case_rng(cfg, idx), _case_rng(cfg, idx)


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_IDS)
def test_multisegment_draws_match_the_reference(cfg):
    for idx in range(2000):
        rng, twin = _twins(cfg, idx)
        assert _draw(rng, cfg.n, cfg.max_ht) == reference_draw(twin, cfg.n, cfg.max_ht), idx
        assert rng.getstate() == twin.getstate(), idx
        rng, twin = _twins(cfg, idx)
        assert random_multisegment(rng, cfg.n, cfg.max_ht) == reference_draw(twin, cfg.n, cfg.max_ht)[0], idx


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_IDS)
def test_ext_element_draws_match_the_reference(cfg):
    ext = _affine(cfg.n).ext
    for idx in range(2000):
        rng, twin = _twins(cfg, idx)
        got = random_ext_element(rng, ext, cfg.window, cfg.max_ht)
        assert got == reference_ext_element(twin, ext, cfg.window, cfg.max_ht), idx
        assert rng.getstate() == twin.getstate(), idx


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_IDS)
def test_pairing_queries_match_the_reference(cfg):
    ext = _affine(cfg.n).ext
    heights = set()
    for idx in range(2000):
        twin = _case_rng(cfg, idx)
        c, i, k = reference_query(twin, ext, cfg.window, cfg.max_ht)
        assert _draw_shifted_query(cfg, idx) == (c, i, k, twin.randrange(-3, 4)), idx
        heights.add(ext.total_height(c))
    # the draws reach the height bound's range, not only small cases
    assert max(heights) >= min(cfg.max_ht, 20)
