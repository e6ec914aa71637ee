"""Tests for the alternating-count cancellation kernels."""

import random

from extcrystal.signature import expand, reduce_runs, survivors
from extcrystal.verify import cancel_in_random_order


def test_survivors_match_random_order_cancellation():
    # words of every length up to 13, odd ones included, with zero counts
    # standing for empty stretches among the others
    rng = random.Random(97)
    for _ in range(600):
        counts = [rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(rng.randint(0, 13))]
        want = [0] * len(counts)
        for sign, at in cancel_in_random_order(expand(counts), rng):
            if sign == "-":
                want[at] += 1
        got = survivors(counts)
        assert got == want, counts
        minus, _, minus_at, _ = reduce_runs(counts)
        assert sum(got) == minus
        assert max((at for at, left in enumerate(got) if left), default=None) == minus_at

