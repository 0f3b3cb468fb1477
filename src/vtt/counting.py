"""Exact class counting for vertex-transitive tournaments of odd prime order.

Write p - 1 = 2^k * r with r odd.  For each divisor m of r there are units of
multiplicative order m, and the tournament sets they fix fall into classes of
size exactly (p-1)/m once the sets fixed at a strictly finer level (a proper
multiple of m dividing r) are subtracted.  Processing the divisors of r from
r down to 1 therefore determines, by exact division, how many classes of each
size exist; their sum, the class count, is printed from a residual of about a
third of its bits (BENCH_30.json).  All arithmetic is integer-exact: no floats
appear in this module, and every division the recursion performs is checked.
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
# builds; residual_lines' conversion is near-linear in the digit count.
MAX_COUNT_DIGITS = 100_000
# A count of at most this many bits is below 10^MAX_COUNT_DIGITS.
_MAX_SAFE_BITS = int(MAX_COUNT_DIGITS * math.log2(10))
# residual_lines converts a residual of at most this many bits in one step.
_LEAF_BITS = 1024


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
    exact, subsumed, f = _phi_table(p, divisors(_odd_part(p - 1)))
    d = p - 1
    entries = {m: (sets // (d // m), d // m) for m, sets in exact.items()}
    count = ((1 << d // 2) + f) // d
    entries[1] = (count - sum(c for c, _ in entries.values()), d)
    r = _odd_part(d)
    return PhiTable(p, (d // r).bit_length() - 1, r, entries, subsumed, count)


def _odd_part(n: int) -> int:
    """n >= 1 divided by its largest power of two."""
    return n // (n & -n)


def _phi_table(p: int, odd_divisors: list[int]) -> tuple[dict[int, int], dict[int, int], int]:
    """The recursion for a p known to be an odd prime, over the divisors of the
    odd part of p - 1 that the caller found, largest first: (exact, subsumed, f).

    exact[m], m > 1, is the number of sets whose stabilizer in Z_p^* has odd
    part exactly m, the dividend of m's exact division by the class size
    (p-1)/m; subsumed[m] sums exact over the proper multiples of m, which the
    walk has already stored.  With d = p - 1 and h = d/2, the class count times
    d is the sum of m * exact[m] over every m: 2^h + f, with f the sum of
    (m - 1) * exact[m] over m > 1.  So the step at m = 1 is checked modulo d,
    and no h-bit number is formed (BENCH_30.json)."""
    d = p - 1
    exact: dict[int, int] = {}
    subsumed: dict[int, int] = {}
    f = 0
    for m in reversed(odd_divisors):
        covered = 0
        for k, sets in exact.items():
            if k % m == 0:
                covered += sets
        subsumed[m] = covered
        size = d // m
        if size % 2:
            raise InconsistencyError(f"class size {size} is odd for p={p}, m={m}")
        if m == 1:
            if (pow(2, size // 2, size) - covered) % size:
                raise InconsistencyError(f"non-exact division at p={p}, m=1")
            return exact, subsumed, f
        remaining = (1 << (size // 2)) - covered
        if remaining % size:
            raise InconsistencyError(
                f"non-exact division at p={p}, m={m}: {remaining} by {size}")
        exact[m] = remaining
        f += (m - 1) * remaining
    raise InconsistencyError(f"class sizes do not exhaust all sets for p={p}")


def check_digit_cap(p: int) -> None:
    """Raise SizeLimitError when the count for p has more than MAX_COUNT_DIGITS
    digits by a bound on p alone, before any counting work.

    Each class holds at most p - 1 of the 2^((p-1)/2) sets, so the count is at
    least 2^((p-1)/2) / (p-1) > 2^((p-1)//2 - bitlen(p-1)).  Counts just below
    the bound's reach are refused by `residual_lines` once counted."""
    if (p - 1) // 2 - (p - 1).bit_length() > _MAX_SAFE_BITS:
        raise SizeLimitError(f"the count for a prime as large as {p} has more than "
                             f"{MAX_COUNT_DIGITS} decimal digits")


def residual(p: int) -> int:
    """`_phi_table`'s residual f for a p known to be an odd prime."""
    return _phi_table(p, divisors(_odd_part(p - 1)))[2]


def class_count(p: int) -> int:
    """Number of isomorphism classes of vertex-transitive tournaments of order p."""
    _check_odd_prime(p)
    return ((1 << (p - 1) // 2) + residual(p)) // (p - 1)


def _least_factors(n: int) -> array:
    """least[k] is the smallest prime dividing k, for 2 <= k <= n; least[k] = k
    exactly when k is 0, 1 or a prime.  Each f <= sqrt(n), largest first,
    writes itself into its multiples from f^2 on, so the last f to write k is
    k's smallest divisor above 1, a prime."""
    least = array("I", range(n + 1))
    for f in range(math.isqrt(n), 1, -1):
        least[f * f::f] = array("I", [f]) * len(range(f * f, n + 1, f))
    return least


def residual_table(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, f) for every odd prime in [p_min, p_max], ascending, where f is the
    residual of `_phi_table`: the class count is (2^h + f) / (p - 1).

    One least-prime-factor table up to p_max yields the primes and the
    factors of each p - 1.  The digit cap is checked on p_max before the
    table is built or anything is counted."""
    if p_min > p_max:
        raise ValueError(f"empty range: {p_min} > {p_max}")
    check_digit_cap(p_max)
    least = _least_factors(max(p_max, 2))
    return [(p, _phi_table(p, divisors(_odd_part(p - 1), least))[2])
            for p in range(max(3, p_min) | 1, p_max + 1, 2) if least[p] == p]


def count_table(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, class count) for every odd prime in [p_min, p_max], ascending."""
    return [(p, ((1 << (p - 1) // 2) + f) // (p - 1)) for p, f in residual_table(p_min, p_max)]


def residual_lines(rows: list[tuple[int, int]], fmt: str = "tsv") -> Iterator[str]:
    """The output lines of rows (p, f) whose count is (2^h + f) / d, with
    d = p - 1 and h = d // 2 (any integers; d is at least 1), counts always in
    decimal, output byte-deterministic.

    CPython's int -> str is quadratic in the length, so counts are formed in
    exact decimal arithmetic: 2^h is carried in decimal from row to row and
    only f, about a third of the bits of 2^h for a class count, is converted
    from binary; the addition, the division by d and str() are linear.  An f
    of more than _LEAF_BITS bits is split at the largest power of two 2^k
    below its length and the converted halves merged by one fused
    multiply-add with 2^k (BENCH_30.json).  The precision bounds every operand
    by digits <= bits // 3 + 1, and Inexact and Rounded trap, so a precision
    too small raises and never rounds.  Every check, the digit cap's too
    (exact, in binary, for a row near it), runs before the first line.  json
    is json.dumps(payload, separators=(",", ":")) written out by hand, since
    json.dumps would convert each count with int -> str."""
    if fmt not in ("tsv", "text", "json"):
        raise ValueError(f"unknown count table format {fmt!r}")
    # imported here, so that a process that prints no count table does not
    # load decimal (about 0.3 MB of RSS)
    from decimal import Context, Inexact, InvalidOperation, Rounded

    bits = 0  # 2^h + f has at most this many bits
    for p, f in rows:
        d = max(p - 1, 1)
        top = max(d // 2, f.bit_length()) + 2
        if top > _MAX_SAFE_BITS and ((1 << d // 2) + f) // d >= 10 ** MAX_COUNT_DIGITS:
            raise SizeLimitError(f"the count for p={p} has more than {MAX_COUNT_DIGITS} decimal digits")
        bits = max(bits, top)
    ctx = Context(prec=bits // 3 + 1, traps=[InvalidOperation, Inexact, Rounded])
    powers = {}  # 2^k in decimal, for each split point k this call meets

    def convert(n: int):
        if n < 0:
            return ctx.copy_negate(convert(-n))
        if n.bit_length() <= _LEAF_BITS:
            return n
        k = 1 << (n.bit_length() - 1).bit_length() - 1
        if k not in powers:
            powers[k] = ctx.power(2, k)
        return ctx.fma(convert(n >> k), powers[k], convert(n & (1 << k) - 1))

    power = h_prev = None  # power = 2^h_prev, in decimal
    opening = "["
    for p, f in rows:
        d = max(p - 1, 1)
        h = d // 2
        if power is None or h < h_prev:
            power = ctx.power(2, h)
        else:
            power = ctx.multiply(power, 1 << (h - h_prev))
        h_prev = h
        quotient, remainder = ctx.divmod(ctx.add(power, convert(f)), d)
        if remainder:
            raise InconsistencyError(f"decimal conversion of the count for p={p} is not exact")
        if fmt == "json":
            yield f'{opening}{{"p":{p},"count":{quotient}}}'
            opening = ","
        else:
            yield f"{p}\t{quotient}\n"
    if fmt == "json":
        yield "[]\n" if opening == "[" else "]\n"


def format_count_table(rows: list[tuple[int, int]], fmt: str = "tsv") -> str:
    """Render (p, count) rows by `residual_lines`, each with the residual
    f = count * (p - 1) - 2^h."""
    return "".join(residual_lines([(p, count * max(p - 1, 1) - (1 << max(p - 1, 1) // 2))
                                   for p, count in rows], fmt))
