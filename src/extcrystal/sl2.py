"""Rank-one B(infinity), where an element is just a nonnegative count.

Lowering bumps the count, raising drops it, both epsilons equal the count and
the star involution is the identity.  On top of this realization the extended
lowering operator has a closed form used as an independent oracle: lower along
(i, k) by removing one from slot k+1 when that slot strictly dominates slot k,
and by adding one to slot k otherwise.
"""

from __future__ import annotations

from .crystal import AbstractCrystal
from .rootdata import RootLattice, RootLatticeElem


class Sl2Crystal(AbstractCrystal):
    """B(infinity) for n = 1 on the nonnegative integers."""

    def __init__(self):
        self.n = 1
        self.lattice = RootLattice(1)

    @property
    def highest(self) -> int:
        return 0

    def validate(self, b) -> None:
        if type(b) is not int or b < 0:
            raise ValueError(f"expected a nonnegative integer, got {b!r}")

    def read(self, b: int, i: int, starred: bool) -> tuple[int]:
        """Both epsilons equal the count, and both families move it alike."""
        if i != 1:
            raise ValueError(f"operator index {i} out of range for rank 1")
        return (b,)

    def lower_with(self, b: int, read: tuple[int]) -> int:
        return b + 1

    def raise_with(self, b: int, read: tuple[int]) -> int | None:
        return b - 1 if b > 0 else None

    def weight(self, b: int) -> RootLatticeElem:
        return RootLatticeElem((-b,))

    def height(self, b: int) -> int:
        return b

    def star(self, b: int) -> int:
        return b


def explicit_lowering(slots: dict[int, int], k: int) -> dict[int, int]:
    """Closed-form rank-one extended lowering on a plain slot -> count dict."""
    cur = slots.get(k, 0)
    above = slots.get(k + 1, 0)
    out = {kk: v for kk, v in slots.items() if v}
    if above > cur:
        if above == 1:
            del out[k + 1]
        else:
            out[k + 1] = above - 1
    else:
        out[k] = cur + 1
    return out
