"""Closed-form pairing invariants between a dual-shifted generator and a general element.

For an extended element c, an index i and a slot k, three integers are defined
from the four counters

    x = epsilon_star(c, i, k + 1)      r = epsilon(c, i, k)
    s = epsilon_star(c, i, k)          y = epsilon(c, i, k - 1)

together with weight pairings taken relative to the base slot k.  Writing
w_t for the plain weight of the content of slot t and

    rel(t) = (-1)^(t - k) * <alpha_i, w_t>

(the pairing of alpha_i with the slot weight, sign-adjusted to the base k),
the invariants are

    lambda_left  = 2 * max(x, r) + sum_t  (-1)^[t > k] * rel(t)
    lambda_right = 2 * max(y, s) + sum_t  (-1)^[t < k] * rel(t)
    d_pair       = max(x, r) + max(y, s) + <alpha_i, w_k>

All sums are finite because c has finite support.  The base-relative sign
makes every formula invariant under shifting c and k together, and the
left/right pair always satisfies lambda_left + lambda_right = 2 * d_pair:
the sum telescopes to twice the t = k term, whose relative sign is +1.

``pairing_read`` takes the counters and every occupied slot's rel(t) in one
pass over c, computing each slot weight once.  The three invariants are
evaluated from that read, each by its own closed form above: none is derived
from the others, so checking lambda_left + lambda_right = 2 * d_pair still
tests the three formulas against each other.
"""

from __future__ import annotations

from typing import NamedTuple

from .extended import ExtElement, ExtendedCrystal


class PairingRead(NamedTuple):
    """The counters of c at (i, k) and (t, rel(t)) for every occupied slot t."""

    k: int
    x: int
    r: int
    s: int
    y: int
    rel: tuple[tuple[int, int], ...]

    def lambda_left(self) -> int:
        k = self.k
        return 2 * max(self.x, self.r) + sum(-v if t > k else v for t, v in self.rel)

    def lambda_right(self) -> int:
        k = self.k
        return 2 * max(self.y, self.s) + sum(-v if t < k else v for t, v in self.rel)

    def d_invariant(self) -> int:
        k = self.k
        return max(self.x, self.r) + max(self.y, self.s) + sum(v for t, v in self.rel if t == k)


def pairing_read(ext: ExtendedCrystal, c: ExtElement, i: int, k: int) -> PairingRead:
    """One pass over c's slots: the four counters at (i, k) and each slot's rel(t).

    A slot that c leaves empty holds the highest element, whose counters and
    pairing are 0.
    """
    cry, pair = ext.crystal, ext.lattice.pair
    if i not in cry.indices():
        raise ValueError(f"operator index {i} out of range for rank {cry.n}")
    x = r = s = y = 0
    rel = []
    for t, b in c:
        term = pair(i, cry.weight(b))
        rel.append((t, -term if (t - k) % 2 else term))
        if t == k + 1:
            x = cry.epsilon_star(b, i)
        elif t == k:
            r, s = cry.epsilon(b, i), cry.epsilon_star(b, i)
        elif t == k - 1:
            y = cry.epsilon(b, i)
    return PairingRead(k, x, r, s, y, tuple(rel))


def lambda_left(ext: ExtendedCrystal, c: ExtElement, i: int, k: int) -> int:
    """Pairing invariant with the shifted generator on the left."""
    return pairing_read(ext, c, i, k).lambda_left()


def lambda_right(ext: ExtendedCrystal, c: ExtElement, i: int, k: int) -> int:
    """Pairing invariant with the shifted generator on the right."""
    return pairing_read(ext, c, i, k).lambda_right()


def d_invariant(ext: ExtendedCrystal, c: ExtElement, i: int, k: int) -> int:
    """Symmetrized invariant: half the sum of the two lambda forms."""
    return pairing_read(ext, c, i, k).d_invariant()
