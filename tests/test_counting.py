import json
import random
import sys
from contextlib import contextmanager

import pytest

from vtt import counting
from vtt.counting import (
    MAX_COUNT_DIGITS,
    class_count,
    count_table,
    format_count_table,
    phi_table,
)
from vtt.enumeration import equivalence_classes
from vtt.errors import SizeLimitError
from vtt.groups import divisors, is_prime

# the full results table for odd primes up to 83
KNOWN_COUNTS = {
    3: 1, 5: 1, 7: 2, 11: 4, 13: 6, 17: 16, 19: 30, 23: 94, 31: 1096,
    37: 7286, 41: 26216, 43: 49940, 47: 182362, 53: 1290556, 59: 9256396,
    61: 17895736, 67: 130150588, 71: 490853416, 73: 954437292,
    79: 7048151672, 83: 26817356776,
}

P331_COUNT = 141721370892693616310660347414912511171570422384


@contextmanager
def str_digits_lifted():
    """Let str() convert ints of any length, then restore the limit.

    The reference renderings below use str() and json.dumps, which refuse
    ints of more than 4300 digits by default; vtt's own output must not
    depend on the limit.  Python before 3.10.7 has no limit to lift."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def reference_rendering(rows, fmt):
    with str_digits_lifted():
        if fmt == "json":
            payload = [{"p": p, "count": count} for p, count in rows]
            return json.dumps(payload, separators=(",", ":")) + "\n"
        return "".join(f"{p}\t{count}\n" for p, count in rows)


class TestPhiTable:
    def test_p3(self):
        t = phi_table(3)
        assert (t.two_exp, t.odd_part) == (1, 1)
        assert t.entries == {1: (1, 2)}
        assert t.subsumed == {1: 0}

    def test_p11(self):
        t = phi_table(11)
        assert t.entries == {5: (1, 2), 1: (3, 10)}
        assert t.entries[1][0] == 3  # classes of the maximum size p - 1

    def test_p331_worked_example(self):
        t = phi_table(331)
        assert (t.two_exp, t.odd_part) == (1, 165)
        assert t.entries[165] == (1, 2)
        assert t.entries[33] == (3, 10)
        assert t.entries[55] == (1, 6)
        assert t.entries[15] == (93, 22)
        assert t.entries[11] == (1091, 30)
        assert t.entries[5] == (130150493, 66)
        assert t.entries[3] == (327534518354199, 110)
        assert t.subsumed[11] == 38
        assert t.subsumed[1] == 36028805608929242
        assert t.entries[1] == (
            141721370892693616310660347414912183636921916503, 330)

    def test_exact_division_invariant(self):
        # 151, 163 and 487 have odd parts 75, 81 and 243, with repeated factors
        for p in [*KNOWN_COUNTS, 151, 163, 487]:
            t = phi_table(p)
            assert sorted(t.entries) == sorted(t.subsumed) == divisors(t.odd_part)
            for m, (count, size) in t.entries.items():
                assert count * size == (1 << (size // 2)) - t.subsumed[m]
                assert t.subsumed[m] == sum(t.entries[d][0] * t.entries[d][1]
                                            for d in t.entries if d > m and d % m == 0)
            assert t.class_count == sum(count for count, _ in t.entries.values())

    @pytest.mark.parametrize("bad", [2, 4, 9, 15, 21, 1, -7])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            phi_table(bad)


class TestClassCount:
    def test_results_table(self):
        for p, expected in KNOWN_COUNTS.items():
            assert class_count(p) == expected

    def test_p331(self):
        assert class_count(331) == P331_COUNT

    def test_bounds(self):
        for p in (3, 5, 7, 11, 13, 31, 83, 331):
            c = class_count(p)
            assert 1 <= c <= 1 << ((p - 1) // 2)


def test_mass_conservation_up_to_200():
    # counted classes, weighted by their size, exhaust every connection set
    for p in range(3, 201, 2):
        try:
            t = phi_table(p)
        except ValueError:
            continue
        total = sum(count * size for count, size in t.entries.values())
        assert total == 1 << ((p - 1) // 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_max_size_class_count_matches_enumeration(p):
    report = equivalence_classes(p)
    full_size = [c for c in report.classes if c.size == p - 1]
    assert phi_table(p).entries[1][0] == len(full_size)


class TestCountTable:
    def test_range(self):
        assert count_table(3, 13) == [(3, 1), (5, 1), (7, 2), (11, 4), (13, 6)]
        assert count_table(41, 43) == [(41, 26216), (43, 49940)]
        assert count_table(3, 3) == [(3, 1)]

    def test_skips_non_primes(self):
        assert count_table(8, 10) == []

    def test_even_lower_end(self):
        assert count_table(4, 11) == [(5, 1), (7, 2), (11, 4)]
        assert count_table(20000, 20100) == count_table(20001, 20100) != []

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            count_table(13, 3)

    def test_rows_match_phi_table(self):
        # 151, 163 and 487 have odd parts 75, 81 and 243, with repeated factors;
        # for the Fermat primes 17, 257 and 65537 the odd part is 1
        rows = count_table(3, 3000) + count_table(65537, 65537)
        assert {151, 163, 487, 17, 257, 65537} <= {p for p, _ in rows}
        for p, count in rows:
            assert count == phi_table(p).class_count

    def test_least_factors(self):
        for n in (0, 1, 2, 3, 4, 9, 10, 3000):
            least = counting._least_factors(n)
            assert list(least[:2]) == [0, 1][:n + 1]
            for k in range(2, n + 1):
                assert least[k] == next(f for f in range(2, k + 1) if k % f == 0)

    def test_sieved_primes_are_not_tested_again(self, monkeypatch):
        calls = []
        monkeypatch.setattr(counting, "is_prime", lambda p: calls.append(p) or is_prime(p))
        assert len(count_table(3, 3000)) == 429
        assert calls == []
        assert class_count(3001) == count_table(3001, 3001)[0][1]
        assert calls == [3001]

    def test_formats(self):
        rows = count_table(3, 7)
        assert format_count_table(rows, "tsv") == "3\t1\n5\t1\n7\t2\n"
        assert format_count_table(rows, "text") == format_count_table(rows, "tsv")
        assert format_count_table(rows, "json") == (
            '[{"p":3,"count":1},{"p":5,"count":1},{"p":7,"count":2}]\n')
        with pytest.raises(ValueError):
            format_count_table(rows, "xml")

    def test_digit_cap(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert format_count_table([(3, 10 ** MAX_COUNT_DIGITS - 1)]).endswith("9\n")
        with pytest.raises(SizeLimitError):
            format_count_table([(3, 1), (5, 10 ** MAX_COUNT_DIGITS)], "json")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize("fmt", ["tsv", "text", "json"])
    def test_format_matches_str_for_every_prime_to_3000(self, fmt):
        rows = count_table(3, 3000)
        assert format_count_table(rows, fmt) == reference_rendering(rows, fmt)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_format_matches_str_for_any_int(self, fmt):
        # the decimal identity holds for any integer row, not only for counts
        rng = random.Random(12)
        primes = [q for q in range(3, 30000, 2) if is_prime(q)]
        rows = [(rng.choice(primes), rng.getrandbits(rng.randrange(1, 16000)))
                for _ in range(200)]
        rows += [(3, 0), (5, 1), (7, 10 ** 4400), (11, 10 ** 4400 - 1)]
        # residuals e = 2^h - count * (p - 1) on both sides of the 1024-bit blocks
        d = 4138
        for bits in (1023, 1024, 1025, 2048, 2049):
            for e in (1 << bits - 1, 1 - (1 << bits)):
                count = ((1 << d // 2) - e) // d
                assert ((1 << d // 2) - count * d).bit_length() == bits
                rows.append((d + 1, count))
        # 3 divides 28596, so the residual has about a third of the 14,298 bits
        rows.append((28597, class_count(28597)))
        assert format_count_table(rows, fmt) == reference_rendering(rows, fmt)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_format_at_the_split_points(self, fmt):
        # residuals f = count * (p - 1) - 2^h of each sign at the lengths where
        # the decimal conversion splits, or stops splitting, at a power of two
        d = 28596
        rows = []
        for bits in (1024, 1025, 2048, 2049, 4097, 14000):
            for f in ((1 << bits) - 1, -(1 << bits - 1)):
                count = ((1 << d // 2) + f) // d
                assert (count * d - (1 << d // 2)).bit_length() == bits
                rows.append((d + 1, count))
        assert format_count_table(rows, fmt) == reference_rendering(rows, fmt)

    def test_format_descending_and_large_primes(self):
        rows = count_table(2900, 3000)[::-1] + [(p, class_count(p)) for p in (100003, 200003)]
        rows += count_table(3, 50)
        assert format_count_table(rows) == reference_rendering(rows, "tsv")
        assert format_count_table(rows, "json") == reference_rendering(rows, "json")

    def test_without_a_digit_limit(self, monkeypatch):
        # Python before 3.10.7 has neither the limit nor its setter.
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert format_count_table([(7, 2)]) == "7\t2\n"
