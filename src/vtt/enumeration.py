"""Tournament connection sets on Z_p as bitmasks, and their orbit structure.

A tournament set on Z_p picks one of {i, p-i} for each i in 1..(p-1)/2, so it
packs into (p-1)/2 bits: bit i-1 set means i is in the set, clear means p-i
is.  Multiplication by a unit permutes these choices; orbits of that action
are exactly the isomorphism classes of the corresponding Cayley tournaments.
-1 flips every bit, so classes are closed under complement, and each class's
smallest mask is a key, a mask with the top bit clear that stands for itself
and its complement.  A key is its class's smallest mask iff no unit takes it
to a smaller key; that test runs bit-sliced, on 2^14 keys per big-int
operation, and only each class's smallest mask and size are kept.  A class's
members are found again by the same action, as its smallest mask's images
under every unit, folded to keys by two table lookups each, and listed by
three lookups in tables keyed by the low and the high half of the choice
bits: the low half's members below p/2, the high half's, then the low half's
above p/2, ascending.  Burnside's count is a second, independent oracle.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import repeat

from .errors import InconsistencyError, SizeLimitError
from .graphs import _ascending_bits
from .groups import is_prime, prime_factors, primitive_root, units

DEFAULT_BUDGET_BITS = 26
# the orbit-minimum test decides 2^_BLOCK_BITS keys at once, one per bit of an int
_BLOCK_BITS = 14


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
    entries, about the square root of the number of masks.
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


def _choice_images(p: int, a: int) -> tuple[list[int], int]:
    """Where unit a sends the choice bits: bit i goes to bit images[i], and
    flips marks the image bits that hold the negative of a choice, so a takes
    a mask to its bits moved by images, XOR flips."""
    if a % p == 0:
        raise ValueError("multiplier must be nonzero mod p")
    half = (p - 1) // 2
    flips = 0
    images = []
    for i in range(1, half + 1):
        v = a * i % p
        if v > half:
            v = p - v
            flips |= 1 << (v - 1)
        images.append(v - 1)
    return images, flips


def _act_table(p: int, a: int) -> tuple[list[int], list[int], int]:
    """Lookup tables (low, high, w) for the action of unit a on masks: it takes
    bits to low[bits & (1 << w) - 1] ^ high[bits >> w], w being half the bits
    rounded up.  Distinct choice bits go to distinct bits, so the two images
    never overlap; the flip of the choices a sends to their negatives is in high.
    """
    images, flips = _choice_images(p, a)
    w = (len(images) + 1) // 2
    low, high = [0], [flips]
    for v in images[:w]:
        low += [x ^ (1 << v) for x in low]
    for v in images[w:]:
        high += [x ^ (1 << v) for x in high]
    return low, high, w


@cache
def _unit_tables(p: int) -> list[tuple[list[int], ...]]:
    """The act tables (low, high) of every unit 2..(p-1)/2, each entry x folded
    to its key min(x, x ^ ones)."""
    ones = (1 << (p - 1) // 2) - 1
    return [tuple([min(x, x ^ ones) for x in t] for t in _act_table(p, a)[:2])
            for a in range(2, (p - 1) // 2 + 1)]


def _class_masks(p: int, bits: int) -> list[int]:
    """The class of mask bits, ascending: the key of bits with its images under
    every unit 2..(p-1)/2, folded (a and -a fold alike; the set drops repeats),
    then their complements, which have the top bit set, in reverse order."""
    ones, w = (1 << (p - 1) // 2) - 1, (p + 1) // 4  # w as in _act_table
    key = min(bits, bits ^ ones)
    lo, hi = key & (1 << w) - 1, key >> w
    keys = sorted({key, *[low[lo] ^ high[hi] for low, high in _unit_tables(p)]})
    return keys + [k ^ ones for k in reversed(keys)]


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
        """The whole class ascending by mask if listed, else None; found on each call."""
        if not self.listed:
            return None
        return tuple(SetMask(self.rep.p, b) for b in _class_masks(self.rep.p, self.rep.bits))


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
                    below[b & m] + high[b >> a] + above[b & m] for b in _class_masks(p, rep)) + "]]"
            lo = rep & m
            yield f'{head}{below[lo]}{high[rep >> a]}{above[lo]}],"size":{size}{members}}}'


def equivalence_classes(p: int, include_members: bool = False,
                        budget_bits: int = DEFAULT_BUDGET_BITS) -> ClassReport:
    """Orbits of the unit action, canonical representative = smallest mask.

    -1 complements every mask, so a class's smallest mask is a key, a mask
    with the top choice bit clear, and a and -a take a key to one key once
    folded (complemented if the top bit is set).  So key x is its class's
    smallest mask iff x <= fold(a*x) for every unit a in 2..h, h = (p-1)/2,
    and its class has (p-1)/(1 + s) masks, s being the number of those a with
    equality.  The test runs on blocks of 2^c keys at once: plane j is one int
    whose bit i is bit j of the block's key i, a's image planes are source
    planes XOR the plane of the image's top bit, and the comparison runs down
    the planes until every key in the block is decided.
    """
    half = _check_enumerable(p, budget_bits)
    # per unit a in 2..h: the source plane of the image's top bit, then from
    # the top plane down each image plane's source, and whether its flip
    # differs from the top bit's
    units = []
    for a in range(2, half + 1):
        images, flips = _choice_images(p, a)
        source = [0] * half
        for i, v in enumerate(images):
            source[v] = i
        top_flip = flips >> half - 1 & 1
        units.append((source[-1], [(j, source[j], (flips >> j & 1) ^ top_flip)
                                   for j in range(half - 2, -1, -1)]))
    c = min(half - 1, _BLOCK_BITS)
    ones = (1 << (1 << c)) - 1
    # plane j < c has bit i set iff i has bit j set; adding 2^j to i carries
    # into bit j + 1 iff bit j of i is set, so plane j is plane j + 1 XOR
    # itself shifted down by 2^j, from an all-ones plane c
    low, plane = [], ones
    for j in reversed(range(c)):
        plane ^= plane >> (1 << j)
        low.insert(0, plane)
    # masks fit 32 bits up to half = 32; sizes divide p - 1, below 2^16 for
    # any p small enough to enumerate
    reps, sizes = array("I" if half <= 32 else "Q"), array("H")
    for base in range(0, 1 << half - 1, 1 << c):
        planes = low + [ones if base >> j & 1 else 0 for j in range(c, half - 1)] + [0]
        smallest, fixed = ones, []
        for top, steps in units:
            t = planes[top]
            flipped = t ^ ones
            undecided, greater = smallest, 0
            for j, s, f in steps:
                x = planes[j]
                differ = (x ^ planes[s] ^ (flipped if f else t)) & undecided
                if differ:
                    greater |= differ & x
                    undecided ^= differ
                    if not undecided:
                        break
            smallest &= ~greater
            if undecided:  # keys that a fixes
                fixed.append(undecided)
        block = len(reps)
        lanes = format(smallest, "b")[::-1]
        lane = lanes.find("1")
        while lane >= 0:
            reps.append(base + lane)
            lane = lanes.find("1", lane + 1)
        sizes.extend(repeat(p - 1, len(reps) - block))
        stabilizer = Counter(bisect_left(reps, base + lane, block)
                             for keys in fixed for lane in _ascending_bits(keys & smallest))
        for i, fixers in stabilizer.items():
            sizes[i] = (p - 1) // (1 + fixers)
    if sum(sizes) != 1 << half or any((p - 1) % size for size in set(sizes)):
        raise InconsistencyError(
            f"class sizes at p={p} do not split the {1 << half} masks into divisors of {p - 1}")
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
