"""The multisegment crystal against the Kashiwara-Saito characterization of B(infinity).

Kashiwara-Saito (Duke Math. J. 89 (1997), Prop. 3.2.3; restated in
Tingley-Webster, Compositio 2016): a crystal with a star involution is
B(infinity) when, with s = eps_i(b) + eps*_i(b) + <h_i, wt(b)>,
- f_i f*_j = f*_j f_i for i != j;
- s >= 0;
- s = 0 implies f_i b = f*_i b;
- s >= 1 implies eps*_i(f_i b) = eps*_i(b) and eps_i(f*_i b) = eps_i(b);
- s >= 2 implies f_i f*_i b = f*_i f_i b.
``lattice.pair(i, wt)`` is <h_i, wt>.  The checks run on every multisegment
up to a height bound; they are a test, not a ``verify`` suite.
"""

from extcrystal.enumeration import iter_multisegments
from extcrystal.msegment import MultisegmentCrystal


def ks_violations(cry, max_ht):
    """(property, i, j or None, b) for each failed check over the multisegments of height <= max_ht."""
    bad = []
    for b in iter_multisegments(cry.n, max_ht):
        w = cry.weight(b)
        for i in cry.indices():
            f, fs = cry.lowering(b, i), cry.star_lowering(b, i)
            for j in cry.indices():
                if j != i and cry.lowering(cry.star_lowering(b, j), i) != cry.star_lowering(f, j):
                    bad.append(("f-commutes-with-other-star-f", i, j, b))
            s = cry.epsilon(b, i) + cry.epsilon_star(b, i) + cry.lattice.pair(i, w)
            for prop, failed in (
                ("s-non-negative", s < 0),
                ("s0-f-is-star-f", s == 0 and f != fs),
                ("s1-f-keeps-star-eps", s >= 1 and cry.epsilon_star(f, i) != cry.epsilon_star(b, i)),
                ("s1-star-f-keeps-eps", s >= 1 and cry.epsilon(fs, i) != cry.epsilon(b, i)),
                ("s2-f-commutes-with-star-f", s >= 2 and cry.star_lowering(f, i) != cry.lowering(fs, i)),
            ):
                if failed:
                    bad.append((prop, i, None, b))
    return bad


# every multisegment of rank n up to the height bound
_EXHAUSTIVE = ((1, 8), (2, 7), (3, 6), (4, 6), (5, 4))


def test_the_multisegment_crystal_satisfies_the_ks_characterization():
    for n, max_ht in _EXHAUSTIVE:
        assert ks_violations(MultisegmentCrystal(n), max_ht) == [], n


def test_star_lowering_replaced_by_lowering_fails_the_characterization():
    # the mutant f*_i := f_i; at n=1 the two agree, so only n >= 2 shows it
    failed = {}
    for n, max_ht in _EXHAUSTIVE:
        cry = MultisegmentCrystal(n)
        cry.star_lowering = cry.lowering
        failed[n] = len(ks_violations(cry, max_ht))
    assert failed == {1: 0, 2: 80, 3: 558, 4: 2628, 5: 1442}


_OPERATORS = ("lowering", "raising", "star_lowering", "star_raising", "epsilon", "epsilon_star")


def test_operators_counters_and_star_do_not_depend_on_the_rank():
    # multisegments are stored rank-free, so a multisegment of rank n reads
    # the same at rank n+1 for every index i <= n
    checked = 0
    for n, max_ht in ((1, 8), (2, 7), (3, 6), (4, 5)):
        low, high = MultisegmentCrystal(n), MultisegmentCrystal(n + 1)
        for b in iter_multisegments(n, max_ht):
            assert low.star(b) == high.star(b), b
            for i in low.indices():
                for op in _OPERATORS:
                    assert getattr(low, op)(b, i) == getattr(high, op)(b, i), (op, i, b)
            checked += 1 + len(_OPERATORS) * n
    assert checked == 12646
