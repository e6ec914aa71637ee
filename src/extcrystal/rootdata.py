"""Cartan data of finite type A_n and exact root-lattice arithmetic.

The Cartan matrix and the lattice are slotted classes that hold the rank.
A root-lattice element is the tuple of its simple-root coordinates: the
integer vector (c_1, ..., c_n) stands for sum_j c_j alpha_j.  The rank is a
runtime parameter, kept small because everything downstream is desk-scale.
"""

from __future__ import annotations

MAX_RANK = 64


def check_rank(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be an integer between 1 and {MAX_RANK}, got {n!r}")


class CartanA:
    """Cartan matrix of type A_n: 2 on the diagonal, -1 between neighbours."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        check_rank(n)
        self.n = n

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"Cartan index ({i},{j}) out of range for rank {self.n}")
        if i == j:
            return 2
        return -1 if abs(i - j) == 1 else 0


class RootLatticeElem(tuple):
    """Integer vector of coefficients in the simple roots alpha_1..alpha_n: the tuple of them."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"RootLatticeElem(coeffs={self[:]!r})"

    @property
    def rank(self) -> int:
        return len(self)

    def __add__(self, other: RootLatticeElem) -> RootLatticeElem:
        self._check_same_rank(other)
        return tuple.__new__(RootLatticeElem, [a + b for a, b in zip(self, other)])

    def __sub__(self, other: RootLatticeElem) -> RootLatticeElem:
        self._check_same_rank(other)
        return tuple.__new__(RootLatticeElem, [a - b for a, b in zip(self, other)])

    def __neg__(self) -> RootLatticeElem:
        return tuple.__new__(RootLatticeElem, [-a for a in self])

    def height(self) -> int:
        """Sum of the simple-root coefficients."""
        return sum(self)

    def is_zero(self) -> bool:
        return not any(self)

    def _check_same_rank(self, other: RootLatticeElem) -> None:
        if len(self) != len(other):
            raise ValueError(f"rank mismatch: {len(self)} vs {len(other)}")

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


class RootLattice:
    """Root lattice of type A_n with its symmetric bilinear pairing."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        check_rank(n)
        self.n = n

    def zero(self) -> RootLatticeElem:
        return RootLatticeElem((0,) * self.n)

    def alpha(self, i: int) -> RootLatticeElem:
        """The simple root alpha_i."""
        self._check_index(i)
        return RootLatticeElem(tuple(1 if j == i else 0 for j in range(1, self.n + 1)))

    def pair(self, i: int, v: RootLatticeElem) -> int:
        """Pairing (alpha_i, v) in simple-root coordinates.

        In type A this is 2 c_i - c_{i-1} - c_{i+1}, missing neighbours
        contributing nothing.
        """
        self._check_index(i)
        if v.rank != self.n:
            raise ValueError(f"rank mismatch: lattice {self.n}, element {v.rank}")
        total = 2 * v[i - 1]
        if i >= 2:
            total -= v[i - 2]
        if i <= self.n - 1:
            total -= v[i]
        return total

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range for rank {self.n}")
