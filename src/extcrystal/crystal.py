"""Interface a B(infinity) realization must provide to the extended layer.

Elements are immutable and hashable; the realization object itself carries the
rank and all operator logic.  Raising operators return None when they
annihilate an element, so None plays the role of the formal zero.

Reads: a realization provides ``read(b, i, starred)``, one reduction of b's
plain (or, when starred, starred) signature along i, as a flat tuple whose
entry 0 is the counter, epsilon (or epsilon*), and two moves that take that
tuple: ``lower_with(b, read)`` and ``raise_with(b, read)``.  The six
operators are derived from these three, each as one read and one move, and
the extended layer compares the counters of two reads and then moves through
one of them, so no element is reduced twice.
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

    def read(self, b, i: int, starred: bool) -> tuple:
        """b's plain or starred reduction along i: a tuple whose entry 0 is epsilon or epsilon*."""
        raise NotImplementedError

    def lower_with(self, b, read: tuple):
        """Lowering of b in the family and along the index of read, which is read(b, ...)."""
        raise NotImplementedError

    def raise_with(self, b, read: tuple):
        """Raising of b in the family and along the index of read; None when nothing can be raised."""
        raise NotImplementedError

    def lowering(self, b, i: int):
        return self.lower_with(b, self.read(b, i, False))

    def raising(self, b, i: int):
        return self.raise_with(b, self.read(b, i, False))

    def star_lowering(self, b, i: int):
        return self.lower_with(b, self.read(b, i, True))

    def star_raising(self, b, i: int):
        return self.raise_with(b, self.read(b, i, True))

    def epsilon(self, b, i: int) -> int:
        return self.read(b, i, False)[0]

    def epsilon_star(self, b, i: int) -> int:
        return self.read(b, i, True)[0]

    def weight(self, b) -> RootLatticeElem:
        raise NotImplementedError

    def height(self, b) -> int:
        """Height of minus the weight; zero exactly on the highest element."""
        raise NotImplementedError

    def star(self, b):
        """The star involution of the realization."""
        raise NotImplementedError
