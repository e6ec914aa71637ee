"""Interface a B(infinity) realization must provide to the extended layer.

Elements are immutable and hashable; the realization object itself carries the
rank and all operator logic.  Raising operators return None when they
annihilate an element, so None plays the role of the formal zero.

Fused reads: the extended layer compares a counter of an element and then
applies one operator of the same family, along the same index, to that same
element.  ``plain_read`` and ``star_read`` return the counter together with a
handle, and the ``*_with`` operators take that handle instead of reading the
element again.  The defaults return no handle and call the operator itself,
so a realization that only implements the operators and counters (such as
``Sl2Crystal``) plugs in unchanged.
"""

from __future__ import annotations

from .rootdata import RootLattice, RootLatticeElem


class AbstractCrystal:
    """Contract for a realization of the crystal B(infinity) of type A_n."""

    n: int
    lattice: RootLattice

    @property
    def highest(self):
        """The highest-weight element; it is the only falsy element, which is how ``ExtElement`` drops highest slots."""
        raise NotImplementedError

    def indices(self) -> range:
        return range(1, self.n + 1)

    def validate(self, b) -> None:
        """Reject elements that do not belong to this realization."""

    def lowering(self, b, i: int):
        raise NotImplementedError

    def raising(self, b, i: int):
        """Inverse of lowering along i; None when nothing can be raised."""
        raise NotImplementedError

    def star_lowering(self, b, i: int):
        raise NotImplementedError

    def star_raising(self, b, i: int):
        raise NotImplementedError

    def epsilon(self, b, i: int) -> int:
        raise NotImplementedError

    def epsilon_star(self, b, i: int) -> int:
        raise NotImplementedError

    def plain_read(self, b, i: int):
        """(epsilon(b, i), handle) for lower_with and raise_with on b along i."""
        return self.epsilon(b, i), None

    def star_read(self, b, i: int):
        """(epsilon_star(b, i), handle) for star_lower_with and star_raise_with on b along i."""
        return self.epsilon_star(b, i), None

    def lower_with(self, b, i: int, handle):
        """lowering(b, i), given the handle of plain_read(b, i)."""
        return self.lowering(b, i)

    def raise_with(self, b, i: int, handle):
        """raising(b, i), given the handle of plain_read(b, i)."""
        return self.raising(b, i)

    def star_lower_with(self, b, i: int, handle):
        """star_lowering(b, i), given the handle of star_read(b, i)."""
        return self.star_lowering(b, i)

    def star_raise_with(self, b, i: int, handle):
        """star_raising(b, i), given the handle of star_read(b, i)."""
        return self.star_raising(b, i)

    def weight(self, b) -> RootLatticeElem:
        raise NotImplementedError

    def height(self, b) -> int:
        """Height of minus the weight; zero exactly on the highest element."""
        raise NotImplementedError

    def star(self, b):
        """The star involution of the realization."""
        raise NotImplementedError
