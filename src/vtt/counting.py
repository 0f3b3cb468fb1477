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

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import InconsistencyError, SizeLimitError
from .groups import divisors, is_prime

# Largest count printed in decimal.  int -> str conversion is quadratic in
# CPython 3.11: 10^5 digits take about 0.2 s, 10^6 digits about 18 s.
MAX_COUNT_DIGITS = 100_000
# A count of at most this many bits is below 10^MAX_COUNT_DIGITS.
_MAX_SAFE_BITS = int(MAX_COUNT_DIGITS * math.log2(10))


@dataclass(frozen=True)
class PhiTable:
    """Per-divisor bookkeeping of the counting recursion for one prime.

    entries[m] = (count, size): there are exactly `count` classes of size
    `size` = (p-1)/m.  subsumed[m] is the number of m-invariant sets already
    accounted for at a finer level (the recursion's running subtraction).
    """

    p: int
    two_exp: int
    odd_part: int
    entries: dict[int, tuple[int, int]]
    subsumed: dict[int, int]

    @property
    def class_count(self) -> int:
        return sum(count for count, _ in self.entries.values())

    @property
    def total_sets(self) -> int:
        return 1 << ((self.p - 1) // 2)


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def phi_table(p: int) -> PhiTable:
    """Run the divisor recursion for p and return the filled table."""
    _check_odd_prime(p)
    r = p - 1
    two_exp = 0
    while r % 2 == 0:
        r //= 2
        two_exp += 1
    divs = divisors(r)
    entries: dict[int, tuple[int, int]] = {}
    subsumed: dict[int, int] = {}
    for m in reversed(divs):
        covered = sum(entries[d][0] * entries[d][1]
                      for d in divs if d > m and d % m == 0)
        size = (p - 1) // m
        if size % 2:
            raise InconsistencyError(f"class size {size} is odd for p={p}, m={m}")
        remaining = (1 << (size // 2)) - covered
        if remaining % size:
            raise InconsistencyError(
                f"non-exact division at p={p}, m={m}: {remaining} by {size}")
        entries[m] = (remaining // size, size)
        subsumed[m] = covered
    table = PhiTable(p, two_exp, r, entries, subsumed)
    if sum(count * size for count, size in entries.values()) != table.total_sets:
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


def count_table(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, class count) for every odd prime in [p_min, p_max], ascending.

    The digit cap is checked on p_max before anything is counted."""
    if p_min > p_max:
        raise ValueError(f"empty range: {p_min} > {p_max}")
    check_digit_cap(p_max)
    rows = []
    for p in range(max(3, p_min) | 1, p_max + 1, 2):
        if is_prime(p):
            rows.append((p, class_count(p)))
    return rows


@contextmanager
def _int_str_digits(limit: int):
    """Let int <-> str conversions run up to `limit` digits, then restore.

    Python before 3.10.7 has no such limit and nothing to set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def format_count_table(rows: list[tuple[int, int]], fmt: str = "tsv") -> str:
    """Render count rows; counts always in decimal, output byte-deterministic.

    A count of more than MAX_COUNT_DIGITS digits raises SizeLimitError before
    anything is converted."""
    if fmt not in ("tsv", "text", "json"):
        raise ValueError(f"unknown count table format {fmt!r}")
    for p, count in rows:
        if count.bit_length() > _MAX_SAFE_BITS and count >= 10 ** MAX_COUNT_DIGITS:
            raise SizeLimitError(
                f"the count for p={p} has more than {MAX_COUNT_DIGITS} decimal digits")
    with _int_str_digits(MAX_COUNT_DIGITS):
        if fmt == "json":
            payload = [{"p": p, "count": count} for p, count in rows]
            return json.dumps(payload, separators=(",", ":")) + "\n"
        return "".join(f"{p}\t{count}\n" for p, count in rows)
