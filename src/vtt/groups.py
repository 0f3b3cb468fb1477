"""Finite abelian group arithmetic.

Covers everything the rest of the package needs from algebra: cyclic groups
and direct products with elements stored as residue tuples, unit groups mod n,
multiplicative orders, primitive roots, prime factors and divisor lists.  All
functions are exact and deterministic; sets are returned in sorted order so
downstream output is reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


def divisors(r: int, least: Sequence[int] | None = None) -> list[int]:
    """All positive divisors of r, increasing.  The smallest prime factor f of
    the shrinking cofactor is found by trial division, or read off `least`
    when given: a table with least[k] the smallest prime dividing k, for
    2 <= k <= r.  Each power of f dividing r adds one layer: the divisors
    found so far, times that power."""
    if r < 1:
        raise ValueError(f"divisors requires r >= 1, got {r}")
    divs = [1]
    f = 2
    while r > 1:
        if least is not None:
            f = least[r]
        else:
            while r % f:
                f += 1 if f == 2 else 2
                if f * f > r:
                    f = r
        layer = divs
        while r % f == 0:
            r //= f
            layer = [d * f for d in layer]
            divs = divs + layer
    return sorted(divs)


def prime_factors(r: int) -> list[int]:
    """The distinct primes dividing r >= 1, ascending: the divisors of r
    above 1 that no smaller one of them divides."""
    factors: list[int] = []
    for d in divisors(r)[1:]:
        if all(d % q for q in factors):
            factors.append(d)
    return factors


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


def primitive_root(p: int) -> int:
    """The smallest generator of Z_p^* for a prime p: the least a with
    a^((p-1)/q) != 1 (mod p) for every prime q dividing p - 1."""
    if p < 2:
        raise ValueError(f"primitive_root requires a prime, got {p}")
    factors = prime_factors(p - 1)
    return next(a for a in range(1, p)
                if all(pow(a, (p - 1) // q, p) != 1 for q in factors))


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

    def add(self, x, y) -> Element:
        x, y = self.coerce(x), self.coerce(y)
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x) -> Element:
        x = self.coerce(x)
        return tuple((-a) % m for a, m in zip(x, self.moduli))


def cyclic(n: int) -> AbelianGroup:
    """The cyclic group Z_n."""
    return AbelianGroup((n,))
