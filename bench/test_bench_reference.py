"""Tests of the benchmark's reference module against published values and
brute force.  Run with: python3 -m pytest bench"""

import reference as ref

# Vertex-transitive tournaments of prime order p, as published (OEIS A000016
# at (p-1)/2).
PUBLISHED_COUNTS = {
    3: 1, 5: 1, 7: 2, 11: 4, 13: 6, 17: 16, 19: 30, 23: 94, 31: 1096,
    37: 7286, 41: 26216, 43: 49940, 47: 182362, 53: 1290556, 59: 9256396,
    61: 17895736, 67: 130150588, 71: 490853416, 73: 954437292,
    79: 7048151672, 83: 26817356776,
}


def test_necklace_count_matches_published_table():
    assert len(PUBLISHED_COUNTS) == 21
    assert {p: ref.necklace_count(p) for p in PUBLISHED_COUNTS} == PUBLISHED_COUNTS


def test_orbit_minimal_masks_number_the_necklace_count():
    for p in (3, 5, 7, 11, 13, 17, 19):
        h = (p - 1) // 2
        minimal = [m for m in range(1 << h) if ref.is_orbit_minimal(p, m)]
        assert len(minimal) == ref.necklace_count(p)
        assert sum(len(ref.orbit_masks(p, m)) for m in minimal) == 1 << h


def test_primes_and_factorization():
    small = [n for n in range(2, 500) if all(n % d for d in range(2, n))]
    assert ref.primes_upto(499) == small
    assert ref.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert ref.divisor_list(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert [ref.totient(n) for n in (1, 9, 10, 97)] == [1, 6, 4, 96]


def test_order_sum_is_sum_of_multiplicative_orders():
    def order(a, p):
        t, x = 1, a
        while x != 1:
            x, t = x * a % p, t + 1
        return t
    for p in (3, 7, 31, 101):
        assert ref.order_sum(p) == sum(order(a, p) for a in range(1, p))


def test_masks_and_unit_multipliers():
    for mask in range(8):
        assert ref.set_to_mask(7, ref.mask_to_set(7, mask)) == mask
    assert ref.unit_multiplier(7, {1, 2, 4}, {3, 5, 6}) == 3
    assert ref.unit_multiplier(7, {1, 2, 4}, {1, 2, 3}) is None
    assert ref.multiplier_stabilizer(7, {1, 2, 4}) == 3


def test_arc_and_regular_subgroup_checks():
    arcs = {(i, (i + 1) % 4) for i in range(4)}
    rotation = (1, 2, 3, 0)
    assert ref.maps_arcs_onto_arcs(arcs, rotation)
    assert not ref.maps_arcs_onto_arcs(arcs, (1, 0, 2, 3))
    rotations = [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
    assert ref.is_regular_subgroup(rotations, 4)
    with_fixed_point = rotations[:3] + [(0, 3, 2, 1)]
    assert not ref.is_regular_subgroup(with_fixed_point, 4)
    assert not ref.is_regular_subgroup(rotations[:3], 4)


def test_closed_form_automorphism_orders():
    assert ref.aut_order_hypercube(4) == 384
    assert ref.aut_order_cycle_wreath(4, 4) == 32768
    assert ref.aut_order_cycle_wreath(5, 3) == 77760
    assert ref.aut_order_cycle_wreath(3, 5) == 6000
    assert ref.aut_order_kneser2(5) == 120
    assert ref.aut_order_kneser2(6) == 720
    assert ref.aut_order_rook(4) == 1152
    assert ref.aut_order_prime_circulant(13, {1, 3, 4, 9, 10, 12}) == 78
