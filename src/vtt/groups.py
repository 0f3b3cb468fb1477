"""Finite abelian group arithmetic.

Covers everything the rest of the package needs from algebra: cyclic groups
and direct products with elements stored as residue tuples, unit groups mod n,
multiplicative orders, cyclic subgroups generated by a unit, and divisor
lists.  All functions are exact and deterministic; sets are returned in
sorted order so downstream output is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

Element = tuple[int, ...]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (inputs are desk-scale)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(r: int) -> list[int]:
    """All positive divisors of r, increasing."""
    if r < 1:
        raise ValueError(f"divisors requires r >= 1, got {r}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= r:
        if r % d == 0:
            small.append(d)
            if d != r // d:
                large.append(r // d)
        d += 1
    return small + large[::-1]


def units(n: int) -> list[int]:
    """Sorted list of residues in [1, n) coprime to n."""
    if n < 2:
        raise ValueError(f"units requires a modulus >= 2, got {n}")
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def mult_order(a: int, n: int) -> int:
    """Smallest t >= 1 with a^t = 1 (mod n)."""
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    t, x = 1, a
    while x != 1:
        x = x * a % n
        t += 1
    return t


def cyclic_subgroup(a: int, n: int) -> set[int]:
    """The multiplicative subgroup generated by a unit a mod n."""
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    sub = {1}
    x = a
    while x != 1:
        sub.add(x)
        x = x * a % n
    return sub


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups; elements are residue tuples.

    The factor order is significant: element ranks are mixed-radix with the
    first factor most significant, which fixes the vertex numbering of every
    Cayley construction built on top.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(m < 2 for m in self.moduli):
            raise ValueError(f"every modulus must be >= 2, got {self.moduli}")

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    def coerce(self, x) -> Element:
        """Normalize an element given as a tuple, or a bare int for Z_n."""
        if isinstance(x, int):
            if len(self.moduli) != 1:
                raise ValueError("bare integers only denote elements of single-factor groups")
            return (x % self.moduli[0],)
        x = tuple(x)
        if len(x) != len(self.moduli):
            raise ValueError(f"element {x} has wrong length for moduli {self.moduli}")
        return tuple(c % m for c, m in zip(x, self.moduli))

    def elements(self) -> list[Element]:
        """All elements in rank order (last coordinate varies fastest)."""
        return list(product(*[range(m) for m in self.moduli]))

    def index(self, x) -> int:
        x = self.coerce(x)
        i = 0
        for c, m in zip(x, self.moduli):
            i = i * m + c
        return i

    def element(self, i: int) -> Element:
        if not 0 <= i < self.order:
            raise ValueError(f"rank {i} out of range for group of order {self.order}")
        coords = []
        for m in reversed(self.moduli):
            i, c = divmod(i, m)
            coords.append(c)
        return tuple(reversed(coords))

    def add(self, x, y) -> Element:
        x, y = self.coerce(x), self.coerce(y)
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x) -> Element:
        x = self.coerce(x)
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def scale(self, k: int, x) -> Element:
        x = self.coerce(x)
        return tuple(k * a % m for a, m in zip(x, self.moduli))


def cyclic(n: int) -> AbelianGroup:
    """The cyclic group Z_n."""
    return AbelianGroup((n,))
