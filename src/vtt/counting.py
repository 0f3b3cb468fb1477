"""Exact class counting for vertex-transitive tournaments of odd prime order.

Write p - 1 = 2^k * r with r odd.  For each divisor m of r there are units of
multiplicative order m, and the tournament sets they fix fall into classes of
size exactly (p-1)/m once the sets fixed at a strictly finer level (a proper
multiple of m dividing r) are subtracted.  Processing the divisors of r from
r down to 1 therefore determines, by exact division, how many classes of each
size exist; their sum is the number of isomorphism classes.  All arithmetic
is integer-exact: no floats appear anywhere in this module, and every division
the recursion performs is checked to be exact.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import InconsistencyError, SizeLimitError
from .groups import divisors, is_prime

# Largest count printed, in decimal digits.  The cap bounds the size of the
# output, one row of up to 100 kB per prime, and of the integers the recursion
# builds; format_count_table's conversion is near-linear in the digit count.
MAX_COUNT_DIGITS = 100_000
# A count of at most this many bits is below 10^MAX_COUNT_DIGITS.
_MAX_SAFE_BITS = int(MAX_COUNT_DIGITS * math.log2(10))
# _decimal_counts converts a larger residual in blocks of this many bits.
_BLOCK_BITS = 1024
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1


@dataclass(frozen=True)
class PhiTable:
    """Per-divisor bookkeeping of the counting recursion for one prime.

    entries[m] = (count, size): there are exactly `count` classes of size
    `size` = (p-1)/m.  subsumed[m] is the number of m-invariant sets already
    accounted for at a finer level (the recursion's running subtraction):
    the sum of count * size over the proper multiples of m that divide
    odd_part.  class_count is the sum of the counts.
    """

    p: int
    two_exp: int
    odd_part: int
    entries: dict[int, tuple[int, int]]
    subsumed: dict[int, int]
    class_count: int

    @property
    def total_sets(self) -> int:
        return 1 << ((self.p - 1) // 2)


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def phi_table(p: int) -> PhiTable:
    """Run the divisor recursion for p and return the filled table."""
    _check_odd_prime(p)
    return _phi_table(p, divisors(_odd_part(p - 1)))


def _odd_part(n: int) -> int:
    """n >= 1 divided by its largest power of two."""
    return n // (n & -n)


def _phi_table(p: int, odd_divisors: list[int]) -> PhiTable:
    """phi_table for a p already known to be an odd prime, walking the
    divisors of the odd part of p - 1 that the caller found.

    exact[m] = count * size is the number of sets whose stabilizer in Z_p^*
    has odd part exactly m, kept as the dividend of m's exact division.  The
    m-invariant sets counted at a finer level are then the sum of exact[d]
    over the proper multiples d of m, which the descending walk has already
    stored, so no product count * size is ever formed."""
    r = _odd_part(p - 1)
    two_exp = ((p - 1) // r).bit_length() - 1
    entries: dict[int, tuple[int, int]] = {}
    subsumed: dict[int, int] = {}
    exact: dict[int, int] = {}
    total = 0
    for m in reversed(odd_divisors):
        covered = 0
        for d, sets in exact.items():
            if d % m == 0:
                covered += sets
        size = (p - 1) // m
        if size % 2:
            raise InconsistencyError(f"class size {size} is odd for p={p}, m={m}")
        remaining = (1 << (size // 2)) - covered
        count, rest = divmod(remaining, size)
        if rest:
            raise InconsistencyError(
                f"non-exact division at p={p}, m={m}: {remaining} by {size}")
        entries[m] = (count, size)
        subsumed[m] = covered
        exact[m] = remaining
        total += count
    table = PhiTable(p, two_exp, r, entries, subsumed, total)
    if sum(exact.values()) != table.total_sets:
        raise InconsistencyError(f"class sizes do not exhaust all sets for p={p}")
    return table


def check_digit_cap(p: int) -> None:
    """Raise SizeLimitError when the count for p has more than MAX_COUNT_DIGITS
    digits by a bound on p alone, before any counting work.

    Each class holds at most p - 1 of the 2^((p-1)/2) sets, so the count is at
    least 2^((p-1)/2) / (p-1) > 2^((p-1)//2 - bitlen(p-1)).  Counts just below
    the bound's reach are refused by `format_count_table` once built."""
    if (p - 1) // 2 - (p - 1).bit_length() > _MAX_SAFE_BITS:
        raise SizeLimitError(f"the count for a prime as large as {p} has more than "
                             f"{MAX_COUNT_DIGITS} decimal digits")


def class_count(p: int) -> int:
    """Number of isomorphism classes of vertex-transitive tournaments of order p."""
    return phi_table(p).class_count


def _least_factors(n: int) -> array:
    """least[k] is the smallest prime dividing k, for 2 <= k <= n; least[k] = k
    exactly when k is 0, 1 or a prime.  Each f <= sqrt(n), largest first,
    writes itself into its multiples from f^2 on, so the last f to write k is
    k's smallest divisor above 1, a prime."""
    least = array("I", range(n + 1))
    for f in range(math.isqrt(n), 1, -1):
        least[f * f::f] = array("I", [f]) * len(range(f * f, n + 1, f))
    return least


def count_table(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, class count) for every odd prime in [p_min, p_max], ascending.

    One least-prime-factor table up to p_max yields the primes and the
    factors of each p - 1.  The digit cap is checked on p_max before the
    table is built or anything is counted."""
    if p_min > p_max:
        raise ValueError(f"empty range: {p_min} > {p_max}")
    check_digit_cap(p_max)
    least = _least_factors(max(p_max, 2))
    return [(p, _phi_table(p, divisors(_odd_part(p - 1), least)).class_count)
            for p in range(max(3, p_min) | 1, p_max + 1, 2) if least[p] == p]


def _decimal_counts(rows: list[tuple[int, int]]) -> Iterator[str]:
    """str(count) of each row in turn, by exact decimal arithmetic.

    CPython's int -> str is quadratic in the length.  With d = p - 1 and
    h = d // 2, count = (2^h - e) / d where e = 2^h - count * d.  For a class
    count, e has about a third of the bits of 2^h (its largest term is a class
    of size (p-1)/3), so only e is converted from binary; 2^h is carried in
    decimal from row to row, and the subtraction, the division by d and str()
    are linear.  The identity holds for any integer row (d is at least 1).
    Converting e is the one quadratic step left, and CPython's own int ->
    Decimal is its slowest form: an e of more than _BLOCK_BITS bits is built
    instead from its blocks of _BLOCK_BITS bits by Horner's rule, one fused
    multiply-add each, which is faster at the sizes of a count table
    (BENCH_27.json has the measurements and the other block sizes tried).
    The precision bounds every operand by digits <= bits // 3 + 1, and Inexact
    and Rounded trap, so a precision too small raises and never rounds.  One
    row's text is alive at a time: the caller's output is the only copy."""
    # imported here, so that a process that prints no count table does not
    # load decimal (about 0.3 MB of RSS)
    from decimal import Context, Inexact, InvalidOperation, Rounded

    # 2^h has h + 1 bits and e at most one more than 2^h or count * d
    bits = max((max((p - 1) // 2, count.bit_length() + max(p - 1, 1).bit_length()) + 2
                for p, count in rows), default=0)
    ctx = Context(prec=bits // 3 + 1, traps=[InvalidOperation, Inexact, Rounded])
    power = h_prev = None  # power = 2^h_prev, in decimal
    block = None  # 2^_BLOCK_BITS, in decimal, once an e needs it: before, prec may be too small
    for p, count in rows:
        d = max(p - 1, 1)
        h = d // 2
        if power is None or h < h_prev:
            power = ctx.power(2, h)
        else:
            power = ctx.multiply(power, 1 << (h - h_prev))
        h_prev = h
        e = (1 << h) - count * d
        if e.bit_length() > _BLOCK_BITS:
            if block is None:
                block = ctx.power(2, _BLOCK_BITS)
            n, value = abs(e), 0
            for shift in range(n.bit_length() // _BLOCK_BITS * _BLOCK_BITS, -1, -_BLOCK_BITS):
                value = ctx.fma(value, block, n >> shift & _BLOCK_MASK)
            e = value if e > 0 else ctx.copy_negate(value)
        quotient, remainder = ctx.divmod(ctx.subtract(power, e), d)
        if remainder:
            raise InconsistencyError(f"decimal conversion of the count for p={p} is not exact")
        yield str(quotient)


def format_count_table(rows: list[tuple[int, int]], fmt: str = "tsv") -> str:
    """Render count rows; counts always in decimal, output byte-deterministic.

    json is json.dumps(payload, separators=(",", ":")) written out by hand,
    since json.dumps would convert each count with int -> str.  A count of
    more than MAX_COUNT_DIGITS digits raises SizeLimitError before anything
    is converted."""
    if fmt not in ("tsv", "text", "json"):
        raise ValueError(f"unknown count table format {fmt!r}")
    for p, count in rows:
        if count.bit_length() > _MAX_SAFE_BITS and count >= 10 ** MAX_COUNT_DIGITS:
            raise SizeLimitError(
                f"the count for p={p} has more than {MAX_COUNT_DIGITS} decimal digits")
    texts = _decimal_counts(rows)
    if fmt == "json":
        return "[" + ",".join(f'{{"p":{p},"count":{text}}}'
                              for (p, _), text in zip(rows, texts)) + "]\n"
    return "".join(f"{p}\t{text}\n" for (p, _), text in zip(rows, texts))
