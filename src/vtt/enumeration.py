"""Tournament connection sets on Z_p as bitmasks, and their orbit structure.

A tournament set on Z_p picks one of {i, p-i} for each i in 1..(p-1)/2, so it
packs into (p-1)/2 bits: bit i-1 set means i is in the set, clear means p-i
is.  Multiplication by a unit permutes these choices; orbits of that action
are exactly the isomorphism classes of the corresponding Cayley tournaments.
Z_p^* is cyclic, so the orbits are those of one primitive root, whose power -1
flips every bit: classes are closed under complement.  The walk runs on keys,
masks with the top bit clear that stand for themselves and their complements;
the fold to keys is linear, so a key steps by two table lookups.  With one
visited byte per key and each class's smallest mask and size kept, it needs
about 0.7 bytes per mask; members are walked again on demand.  A listing
line spells a mask's members by three lookups in tables built once per p,
keyed by the low and the high half of the choice bits: the low half's
members below p/2, the high half's members, then the low half's members
above p/2, which is ascending order.  Burnside's count is a second,
independent oracle.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import repeat

from .errors import InconsistencyError, SizeLimitError
from .groups import is_prime, prime_factors, primitive_root, units

DEFAULT_BUDGET_BITS = 26


@cache
def _is_odd_prime(p: int) -> bool:
    return p >= 3 and is_prime(p)


@cache
def _member_texts(p: int) -> tuple[list[str], list[str], list[str]]:
    """Tables (below, high, above) that spell a mask's members, ascending, as
    the items of a JSON list: below[lo] + high[hi] + above[lo], where lo is
    the mask's low a = h//2 choice bits and hi the other h - a, h = (p-1)/2.

    below[lo] holds lo's members under p/2, each followed by a comma, and
    above[lo] its members over p/2, each preceded by one; high[hi] holds every
    member of the top choices, at least one.  Each table has at most 2^(h-a)
    entries, about the square root of the walk's visited array.
    """
    h = (p - 1) // 2
    a = h // 2
    # choice i, as a new top bit, doubles a table: i is the largest member
    # under p/2 so far and p - i the smallest over it
    below, above = [""], [""]
    for i in range(1, a + 1):
        below += [t + f"{i}," for t in below]
        above = [f",{p - i}" + t for t in above] + above
    # high takes its choices downwards, each as a new bottom bit: i is the
    # smallest member under p/2 so far and p - i the largest over it
    high = [str(p - h), str(h)]
    for i in range(h - 1, a, -1):
        high = [s for t in high for s in (f"{t},{p - i}", f"{i},{t}")]
    return below, high, above


@dataclass(frozen=True)
class SetMask:
    """A tournament connection set on Z_p packed into (p-1)/2 choice bits."""

    p: int
    bits: int

    def __post_init__(self) -> None:
        if not _is_odd_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        if not 0 <= self.bits < 1 << ((self.p - 1) // 2):
            raise ValueError(f"mask {self.bits:#x} out of range for p={self.p}")

    def members(self) -> tuple[int, ...]:
        """The set members as sorted residues in [1, p)."""
        half = (self.p - 1) // 2
        return tuple(sorted(i if self.bits >> (i - 1) & 1 else self.p - i
                            for i in range(1, half + 1)))

    @classmethod
    def from_members(cls, p: int, members) -> "SetMask":
        half = (p - 1) // 2
        mem = {x % p for x in members}
        if len(mem) != half:
            raise ValueError(f"expected {half} members, got {sorted(mem)}")
        bits = 0
        for i in range(1, half + 1):
            if i in mem:
                if p - i in mem:
                    raise ValueError(f"both {i} and {p - i} present: not a tournament set")
                bits |= 1 << (i - 1)
            elif p - i not in mem:
                raise ValueError(f"neither {i} nor {p - i} present: not a tournament set")
        return cls(p, bits)


def _check_enumerable(p: int, budget_bits: int) -> int:
    """(p - 1) / 2, checked for parity, then the budget, then primality,
    so trial division never runs on a p the budget refuses."""
    if p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime")
    half = (p - 1) // 2
    if half > budget_bits:
        raise SizeLimitError(
            f"p={p} needs {half} mask bits, over the budget of {budget_bits}")
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return half


def all_sets(p: int, budget_bits: int = DEFAULT_BUDGET_BITS):
    """Yield every tournament connection set on Z_p once, ascending by mask."""
    half = _check_enumerable(p, budget_bits)
    for bits in range(1 << half):
        yield SetMask(p, bits)


def _act_table(p: int, a: int) -> tuple[list[int], list[int], int]:
    """Lookup tables (low, high, w) for the action of unit a on masks: it takes
    bits to low[bits & (1 << w) - 1] ^ high[bits >> w], w being half the bits
    rounded up.  Distinct choice bits go to distinct bits, so the two images
    never overlap; the flip of the choices a sends to their negatives is in high.
    """
    if a % p == 0:
        raise ValueError("multiplier must be nonzero mod p")
    half = (p - 1) // 2
    w = (half + 1) // 2
    flip_mask = 0
    images = []
    for i in range(1, half + 1):
        v = a * i % p
        if v > half:
            v = p - v
            flip_mask |= 1 << (v - 1)
        images.append(1 << (v - 1))
    low, high = [0], [flip_mask]
    for bit in images[:w]:
        low += [x ^ bit for x in low]
    for bit in images[w:]:
        high += [x ^ bit for x in high]
    return low, high, w


@cache
def _generator_table(p: int) -> tuple[list[int], list[int], int]:
    """The act tables of p's smallest primitive root, each entry x folded to
    its key min(x, x ^ ones)."""
    ones = (1 << (p - 1) // 2) - 1
    low, high, w = _act_table(p, primitive_root(p))
    return [min(x, x ^ ones) for x in low], [min(x, x ^ ones) for x in high], w


def _orbit(p: int, bits: int) -> list[int]:
    """The class of mask bits: its keys in walk order, then their complements."""
    low, high, w = _generator_table(p)
    ones, m = (1 << (p - 1) // 2) - 1, (1 << w) - 1
    rep = bits = min(bits, bits ^ ones)
    keys = [rep]
    while (bits := low[bits & m] ^ high[bits >> w]) != rep:
        keys.append(bits)
    return keys + [k ^ ones for k in keys]


def act(a: int, s: SetMask) -> SetMask:
    """The set {a*x mod p | x in s}, renormalized to the choice-bit encoding."""
    if a % s.p == 0:
        raise ValueError("multiplier must be nonzero mod p")
    return SetMask.from_members(s.p, (a * x for x in s.members()))


def unit_multiplier(n: int, s, t) -> int | None:
    """The smallest unit a with a*s = t as residue sets mod n, if one exists."""
    s = {x % n for x in s}
    t = {x % n for x in t}
    for a in units(n):
        if {a * x % n for x in s} == t:
            return a
    return None


def invariant_sets(p: int, a: int, budget_bits: int = DEFAULT_BUDGET_BITS) -> list[SetMask]:
    """All tournament sets fixed by multiplication with a, ascending by mask."""
    half = _check_enumerable(p, budget_bits)
    low, high, w = _act_table(p, a)
    m = (1 << w) - 1
    return [SetMask(p, bits) for bits in range(1 << half)
            if low[bits & m] ^ high[bits >> w] == bits]


@dataclass(frozen=True)
class ClassInfo:
    rep: SetMask
    size: int
    listed: bool = False

    @property
    def members(self) -> tuple[SetMask, ...] | None:
        """The whole class ascending by mask if listed, else None; walked on each call."""
        if not self.listed:
            return None
        return tuple(SetMask(self.rep.p, b) for b in sorted(_orbit(self.rep.p, self.rep.bits)))


@dataclass(frozen=True)
class ClassReport:
    """Equivalence classes of tournament sets on Z_p under the unit action:
    each class's smallest mask and size, ascending by mask."""

    p: int
    reps: array
    orbit_sizes: array
    listed: bool = False

    @property
    def total_sets(self) -> int:
        return 1 << (self.p - 1) // 2

    @property
    def classes(self) -> tuple[ClassInfo, ...]:
        """One ClassInfo per class, built on each read."""
        return tuple(ClassInfo(SetMask(self.p, rep), size, self.listed)
                     for rep, size in zip(self.reps, self.orbit_sizes))

    @property
    def count(self) -> int:
        return len(self.reps)

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self.orbit_sizes))

    def json_lines(self) -> Iterator[str]:
        """One compact JSON line per class, produced as it is iterated."""
        p, a, listed = self.p, (self.p - 1) // 4, self.listed
        below, high, above = _member_texts(p)
        m = (1 << a) - 1
        head = f'{{"p":{p},"rep":['
        members = ""
        for rep, size in zip(self.reps, self.orbit_sizes):
            if listed:
                members = ',"members":[[' + "],[".join(
                    below[b & m] + high[b >> a] + above[b & m] for b in sorted(_orbit(p, rep))) + "]]"
            lo = rep & m
            yield f'{head}{below[lo]}{high[rep >> a]}{above[lo]}],"size":{size}{members}}}'


def equivalence_classes(p: int, include_members: bool = False,
                        budget_bits: int = DEFAULT_BUDGET_BITS) -> ClassReport:
    """Orbits of the unit action, canonical representative = smallest mask.

    Z_p^* is cyclic, so the orbits of one primitive root are the orbits of
    the whole unit group.  A class of size s is s/2 keys, masks folded to the
    top bit clear, in one cycle whose least key is the class's least mask; the
    walk marks each key, and a scan of the visited bytes finds the next.
    """
    half = _check_enumerable(p, budget_bits)
    low, high, w = _generator_table(p)
    m = (1 << w) - 1
    visited = bytearray(1 << (half - 1))
    # masks fit 32 bits up to half = 32; sizes divide p - 1, below 2^16 for
    # any p whose 2^(half-1) visited bytes fit in memory
    reps, sizes = array("I" if half <= 32 else "Q"), array("H")
    rep = 0
    while rep >= 0:
        bits = rep
        for size in range(2, p, 2):  # a class's size is even and divides p - 1
            visited[bits] = 1
            bits = low[bits & m] ^ high[bits >> w]
            if bits == rep:
                break
        reps.append(rep)
        sizes.append(size)
        rep = visited.find(0, rep + 1)
    return ClassReport(p, reps, sizes, include_members)


def burnside_count(p: int) -> int:
    """Class count as the average number of fixed sets over all units.

    A unit of even order fixes nothing (its cyclic subgroup contains -1);
    a unit of odd order d fixes exactly 2^((p-1)/(2d)) sets.  The units are
    the powers g^k, k in 0..p-2, of a primitive root g, and g^k has order
    (p-1)/gcd(k, p-1), so each exponent is counted once under its gcd.  g is
    checked to generate Z_p^*: g^((p-1)/q) != 1 for every prime q | p - 1.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    g = primitive_root(p)
    if any(pow(g, (p - 1) // q, p) == 1 for q in prime_factors(p - 1)):
        raise InconsistencyError(f"the powers of {g} mod {p} do not cycle through Z_{p}^*")
    total = 0
    for c, count in Counter(map(math.gcd, range(p - 1), repeat(p - 1))).items():
        if (p - 1) // c % 2 == 1:  # g^k of odd order d = (p-1)/c fixes 2^(c/2) sets
            total += count << c // 2
    if total % (p - 1):
        raise InconsistencyError(
            f"fixed-set total {total} is not divisible by {p - 1}")
    return total // (p - 1)
