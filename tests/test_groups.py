import math

import pytest

from vtt.groups import (
    AbelianGroup,
    cyclic,
    divisors,
    is_prime,
    mult_order,
    prime_factors,
    primitive_root,
    units,
)


def test_units_basic():
    assert units(2) == [1]
    assert units(11) == list(range(1, 11))
    u25 = units(25)
    assert len(u25) == 20
    assert {1, 4, 6, 9, 11, 14, 16, 19, 21, 24} <= set(u25)
    assert u25 == [a for a in range(1, 25) if math.gcd(a, 25) == 1]


def test_units_rejects_small_modulus():
    with pytest.raises(ValueError):
        units(1)


def test_mult_order():
    assert mult_order(1, 11) == 1
    assert mult_order(5, 11) == 5
    assert mult_order(3, 13) == 3


def test_mult_order_requires_unit():
    with pytest.raises(ValueError):
        mult_order(2, 4)


@pytest.mark.parametrize("a, n", [(5, 1), (0, 1), (2, -3), (1, 0)])
def test_mult_order_rejects_small_modulus(a, n):
    # mod 1 every power is 0 and mod a negative n every power is at most 0,
    # so a walk of powers waiting for 1 never ends; mod 0 it divides by zero
    with pytest.raises(ValueError, match="modulus"):
        mult_order(a, n)


@pytest.mark.parametrize("n", [7, 11, 12, 13, 25, 31])
def test_order_divides_unit_group_order(n):
    count = len(units(n))
    for a in units(n):
        assert count % mult_order(a, n) == 0


def test_primitive_root_is_the_smallest_generator():
    for p in range(3, 5000):
        if is_prime(p):
            assert primitive_root(p) == next(a for a in units(p) if mult_order(a, p) == p - 1)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(165) == [1, 3, 5, 11, 15, 33, 55, 165]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    assert divisors(3 ** 9) == [3 ** k for k in range(10)]
    assert divisors(2 ** 12) == [2 ** k for k in range(13)]
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_read_off_a_least_factor_table():
    least = [0, 1] + [next(f for f in range(2, k + 1) if k % f == 0) for k in range(2, 2001)]
    for n in range(1, 2001):
        assert divisors(n, least) == divisors(n)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(100002) == [2, 3, 7, 2381]
    for n in range(1, 2001):
        assert prime_factors(n) == [d for d in divisors(n) if is_prime(d)]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 331]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (-3, 0, 1, 4, 9, 15, 25, 121))


class TestAbelianGroup:
    def test_single_factor_matches_zn(self):
        g = cyclic(9)
        assert g.order == 9
        assert g.elements() == [(i,) for i in range(9)]
        assert g.index(4) == 4
        assert g.add(7, 5) == (3,)
        assert g.neg(2) == (7,)

    def test_moduli_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup((3, 1))
        with pytest.raises(ValueError):
            AbelianGroup(())

    def test_indexing_is_mixed_radix(self):
        g = AbelianGroup((3, 3))
        assert g.index((1, 2)) == 5
        for i, x in enumerate(g.elements()):
            assert g.index(x) == i

    @pytest.mark.parametrize("moduli", [(2,), (5,), (3, 3), (4, 6), (2, 3, 5)])
    def test_element_arithmetic(self, moduli):
        g = AbelianGroup(moduli)
        for x in g.elements():
            assert g.add(x, g.neg(x)) == g.identity

    def test_coercion_errors(self):
        g = AbelianGroup((3, 3))
        with pytest.raises(ValueError):
            g.coerce(4)
        with pytest.raises(ValueError):
            g.coerce((1, 2, 3))
