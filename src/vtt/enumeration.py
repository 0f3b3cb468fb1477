"""Tournament connection sets on Z_p as bitmasks, and their orbit structure.

A tournament set on Z_p picks one of {i, p-i} for each i in 1..(p-1)/2, so it
packs into (p-1)/2 bits: bit i-1 set means i is in the set, clear means p-i
is.  Multiplication by a unit permutes these choices; orbits of that action
are exactly the isomorphism classes of the corresponding Cayley tournaments.
Z_p^* is cyclic, so the orbits are those of a single primitive root; this
module enumerates them explicitly (one walk per orbit over the full mask
universe, with one visited byte per mask) and provides the Burnside
fixed-point count as a second, formula independent oracle.  A class keeps only
its smallest mask and size; its members are walked again when asked for.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

from .errors import InconsistencyError, SizeLimitError
from .groups import is_prime, mult_order, units

DEFAULT_BUDGET_BITS = 26

_CHUNK_BITS = 8


@cache
def _is_odd_prime(p: int) -> bool:
    return p >= 3 and is_prime(p)


@cache
def _member_chunks(p: int) -> list[list[tuple[int, ...]]]:
    """Per 8-bit chunk of a mask, indexed by the chunk's value: its members."""
    half = (p - 1) // 2
    return [[tuple(i if value >> (i - 1 - lo) & 1 else p - i
                   for i in range(lo + 1, min(lo + _CHUNK_BITS, half) + 1))
             for value in range(1 << min(_CHUNK_BITS, half - lo))]
            for lo in range(0, half, _CHUNK_BITS)]


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
        chosen, bits = [], self.bits
        for table in _member_chunks(self.p):
            chosen += table[bits & 0xFF]
            bits >>= _CHUNK_BITS
        return tuple(sorted(chosen))

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
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    half = (p - 1) // 2
    if half > budget_bits:
        raise SizeLimitError(
            f"p={p} needs {half} mask bits, over the budget of {budget_bits}")
    return half


def all_sets(p: int, budget_bits: int = DEFAULT_BUDGET_BITS):
    """Yield every tournament connection set on Z_p once, ascending by mask."""
    half = _check_enumerable(p, budget_bits)
    for bits in range(1 << half):
        yield SetMask(p, bits)


def _act_table(p: int, a: int) -> tuple[list[list[int]], int]:
    """Chunked lookup tables for the action of unit a on masks.

    Returns (chunk_tables, flip_mask): applying the action to `bits` is
    OR-of-table-lookups over 8-bit chunks, XORed with flip_mask.
    """
    if a % p == 0:
        raise ValueError("multiplier must be nonzero mod p")
    half = (p - 1) // 2
    moves = []
    flip_mask = 0
    for i in range(1, half + 1):
        v = a * i % p
        if v <= half:
            moves.append((i - 1, v - 1))
        else:
            moves.append((i - 1, p - v - 1))
            flip_mask |= 1 << (p - v - 1)
    nchunks = (half + _CHUNK_BITS - 1) // _CHUNK_BITS
    tables = []
    for c in range(nchunks):
        lo = c * _CHUNK_BITS
        width = min(_CHUNK_BITS, half - lo)
        table = [0] * (1 << width)
        local = [(src - lo, dst) for src, dst in moves if lo <= src < lo + width]
        for chunk in range(1 << width):
            out = 0
            for src, dst in local:
                out |= (chunk >> src & 1) << dst
            table[chunk] = out
        tables.append(table)
    return tables, flip_mask


def _apply(tables: list[list[int]], flip_mask: int, bits: int) -> int:
    out = 0
    for table in tables:
        out |= table[bits & 0xFF]
        bits >>= _CHUNK_BITS
    return out ^ flip_mask


@cache
def _generator_table(p: int) -> tuple[list[list[int]], int]:
    return _act_table(p, next(a for a in units(p) if mult_order(a, p) == p - 1))


def _orbit(p: int, rep: int) -> list[int]:
    """The orbit of mask rep under the primitive root, in walk order from rep."""
    tables, flip_mask = _generator_table(p)
    orbit = [rep]
    while (bits := _apply(tables, flip_mask, orbit[-1])) != rep:
        orbit.append(bits)
    return orbit


def act(a: int, s: SetMask) -> SetMask:
    """The set {a*x mod p | x in s}, renormalized to the choice-bit encoding."""
    tables, flip_mask = _act_table(s.p, a)
    return SetMask(s.p, _apply(tables, flip_mask, s.bits))


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
    tables, flip_mask = _act_table(p, a)
    return [SetMask(p, bits) for bits in range(1 << half)
            if _apply(tables, flip_mask, bits) == bits]


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
    """Equivalence classes of tournament sets on Z_p under the unit action."""

    p: int
    total_sets: int
    classes: tuple[ClassInfo, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(c.size for c in self.classes))

    def json_lines(self) -> Iterator[str]:
        """One JSON line per class, produced as it is iterated."""
        for c in self.classes:
            record: dict = {"p": self.p, "rep": list(c.rep.members()), "size": c.size}
            if c.listed:
                record["members"] = [list(m.members()) for m in c.members]
            yield json.dumps(record, separators=(",", ":"))


def equivalence_classes(p: int, include_members: bool = False,
                        budget_bits: int = DEFAULT_BUDGET_BITS) -> ClassReport:
    """Orbits of the unit action, canonical representative = smallest mask.

    Z_p^* is cyclic, so the orbits of one primitive root are the orbits of
    the whole unit group.  Masks are scanned in ascending order; an unvisited
    mask is the smallest member of its orbit, which is walked until it
    returns to the start, marking every mask on the way.
    """
    half = _check_enumerable(p, budget_bits)
    total = 1 << half
    visited = bytearray(total)

    classes = []
    for rep in range(total):
        if visited[rep]:
            continue
        orbit = _orbit(p, rep)
        for bits in orbit:
            visited[bits] = 1
        classes.append(ClassInfo(SetMask(p, rep), len(orbit), include_members))
    return ClassReport(p, total, tuple(classes))


def burnside_count(p: int) -> int:
    """Class count as the average number of fixed sets over all units.

    A unit of even order fixes nothing (its cyclic subgroup contains -1);
    a unit of odd order d fixes exactly 2^((p-1)/(2d)) sets.  The units are
    walked as the powers of a primitive root g; g^k has order (p-1)/gcd(k, p-1).
    """
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    g = next(a for a in units(p) if mult_order(a, p) == p - 1)
    total, x = 0, 1
    for k in range(p - 1):
        d = (p - 1) // math.gcd(k, p - 1)
        if d % 2 == 1:
            total += 1 << ((p - 1) // (2 * d))
        x = x * g % p
        # the powers are distinct units up to their first return to 1
        if (x == 1) != (k == p - 2):
            raise InconsistencyError(f"the powers of {g} mod {p} do not cycle through Z_{p}^*")
    if total % (p - 1):
        raise InconsistencyError(
            f"fixed-set total {total} is not divisible by {p - 1}")
    return total // (p - 1)
