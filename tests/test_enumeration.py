import json
import random
import tracemalloc
from array import array

import pytest

from vtt import enumeration, groups
from vtt.counting import class_count
from vtt.enumeration import (
    ClassReport,
    SetMask,
    act,
    all_sets,
    burnside_count,
    equivalence_classes,
    invariant_sets,
    unit_multiplier,
)
from vtt.errors import InconsistencyError, SizeLimitError
from vtt.graphs import cayley_digraph
from vtt.groups import cyclic, mult_order, units
from vtt.perm import isomorphic


def walk_classes(p):
    """Reps and sizes by the key walk under a primitive root: from each key
    not yet visited, in ascending order, step until the cycle closes.  A
    class of size s is a cycle of s/2 keys whose least key is its rep."""
    half = (p - 1) // 2
    ones = (1 << half) - 1
    low, high, w = enumeration._act_table(p, groups.primitive_root(p))
    low, high = [min(x, x ^ ones) for x in low], [min(x, x ^ ones) for x in high]
    m = (1 << w) - 1
    visited = bytearray(1 << (half - 1))
    reps, sizes = array("I"), array("H")
    rep = 0
    while rep >= 0:
        bits = rep
        for size in range(2, p, 2):
            visited[bits] = 1
            bits = low[bits & m] ^ high[bits >> w]
            if bits == rep:
                break
        reps.append(rep)
        sizes.append(size)
        rep = visited.find(0, rep + 1)
    return reps, sizes


class TestSetMask:
    def test_members_decoding(self):
        assert SetMask(11, 0b11111).members() == (1, 2, 3, 4, 5)
        assert SetMask(11, 0).members() == (6, 7, 8, 9, 10)
        assert SetMask(3, 1).members() == (1,)
        assert SetMask(3, 0).members() == (2,)

    @pytest.mark.parametrize("p", [17, 19, 37, 53, 101])
    def test_members_match_bitwise_decoding(self, p):
        half = (p - 1) // 2
        rng = random.Random(p)
        for bits in [0, (1 << half) - 1, *(rng.getrandbits(half) for _ in range(50))]:
            want = sorted(i if bits >> (i - 1) & 1 else p - i for i in range(1, half + 1))
            assert SetMask(p, bits).members() == tuple(want)

    @pytest.mark.parametrize("p", [17, 19, 37, 53])
    def test_listing_text_matches_bitwise_decoding(self, p):
        # p = 53 is the largest p the default budget lists; the masks fill
        # either half of the choice bits, both or neither
        half = (p - 1) // 2
        low, top = (1 << half // 2) - 1, (1 << half) - (1 << half // 2)
        rng = random.Random(p)
        masks = [0, low, top, low | top, *(rng.getrandbits(half) for _ in range(50))]
        report = ClassReport(p, array("Q", masks), array("H", [2] * len(masks)))
        for bits, line in zip(masks, report.json_lines()):
            want = sorted(i if bits >> (i - 1) & 1 else p - i for i in range(1, half + 1))
            assert json.loads(line)["rep"] == want
            assert f'"rep":[{",".join(map(str, want))}]' in line

    @pytest.mark.parametrize("p", [3, 5, 17, 41, 53])
    def test_member_texts_sizes(self, p):
        half = (p - 1) // 2
        enumeration._member_texts.cache_clear()
        below, high, above = enumeration._member_texts(p)
        assert len(below) == len(above) == 1 << half // 2
        assert len(high) == 1 << half - half // 2
        assert all(high)
        assert enumeration._member_texts(p) is enumeration._member_texts(p)
        assert enumeration._member_texts.cache_info().misses == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_round_trip(self, p):
        for s in all_sets(p):
            assert SetMask.from_members(p, s.members()) == s

    def test_from_members_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            SetMask.from_members(11, {1, 10, 3, 4, 5})  # 1 and -1 both present
        with pytest.raises(ValueError):
            SetMask.from_members(11, {1, 2, 3, 4})

    def test_primality_checked_once_per_p(self, monkeypatch):
        calls = []
        monkeypatch.setattr(enumeration, "is_prime", lambda p: calls.append(p) or groups.is_prime(p))
        enumeration._is_odd_prime.cache_clear()
        assert equivalence_classes(13, include_members=True).count == 6
        assert calls == [13]

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            SetMask(9, 0)
        with pytest.raises(ValueError):
            SetMask(11, 1 << 5)


class TestAllSets:
    def test_small_counts(self):
        assert [s.members() for s in all_sets(3)] == [(2,), (1,)]
        # 2^((11-1)/2) = 32 sets, matching the class sizes 10+10+10+2
        assert len(list(all_sets(11))) == 32

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_count_is_power_of_two(self, p):
        masks = list(all_sets(p))
        assert len(masks) == 1 << ((p - 1) // 2)
        assert [m.bits for m in masks] == sorted({m.bits for m in masks})

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            list(all_sets(9))
        with pytest.raises(ValueError):
            list(all_sets(4))

    def test_budget(self):
        with pytest.raises(SizeLimitError):
            list(all_sets(67))
        assert len(list(all_sets(7, budget_bits=3))) == 8

    def test_members_need_no_extra_budget(self):
        # member lists are walked again on demand, so they cost no mask bits
        report = equivalence_classes(7, include_members=True, budget_bits=3)
        assert report.count == 2
        assert sorted(m.bits for c in report.classes for m in c.members) == list(range(8))
        with pytest.raises(SizeLimitError):
            equivalence_classes(7, include_members=True, budget_bits=2)
        assert equivalence_classes(7, budget_bits=3).count == 2


class TestAct:
    def test_identity_fixes_everything(self):
        for s in all_sets(11):
            assert act(1, s) == s

    def test_invariant_and_doubling_examples(self):
        s = SetMask.from_members(11, {1, 9, 3, 4, 5})
        assert act(5, s) == s
        t = SetMask.from_members(11, {1, 2, 3, 4, 5})
        assert act(2, t).members() == (2, 4, 6, 8, 10)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            act(0, SetMask(11, 3))
        with pytest.raises(ValueError):
            act(22, SetMask(11, 3))

    def test_act_matches_set_arithmetic(self):
        for s in all_sets(13):
            for a in (2, 5, 12):
                assert set(act(a, s).members()) == {a * x % 13 for x in s.members()}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_group_action_laws(self, p):
        masks = list(all_sets(p))
        for a in units(p):
            for b in units(p):
                for s in masks:
                    assert act(a, act(b, s)) == act(a * b % p, s)


class TestUnitMultiplier:
    def test_finds_smallest(self):
        assert unit_multiplier(7, {1, 2, 3}, {3, 6, 2}) == 3
        assert unit_multiplier(7, {1, 2, 3}, {1, 2, 3}) == 1

    def test_none_when_unrelated(self):
        assert unit_multiplier(11, {1, 2, 3, 4, 5}, {1, 3, 4, 5, 9}) is None


class TestInvariantSets:
    def test_order_five_unit_mod_eleven(self):
        got = [s.members() for s in invariant_sets(11, 5)]
        assert got == [(2, 6, 7, 8, 10), (1, 3, 4, 5, 9)]

    def test_counts(self):
        assert len(invariant_sets(13, 3)) == 4
        assert invariant_sets(11, 10) == []

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_size_law(self, p):
        for a in units(p):
            d = mult_order(a, p)
            expected = 0 if d % 2 == 0 else 1 << ((p - 1) // (2 * d))
            assert len(invariant_sets(p, a)) == expected

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_invariance_descends_to_subgroups(self, p):
        # if s is fixed by b, it is fixed by every a in <b>
        for b in units(p):
            fixed = invariant_sets(p, b)
            for a in {pow(b, k, p) for k in range(mult_order(b, p))}:
                for s in fixed:
                    assert act(a, s) == s


class TestEquivalenceClasses:
    def test_p3(self):
        report = equivalence_classes(3, include_members=True)
        assert report.count == 1
        assert report.classes[0].size == 2
        assert [m.members() for m in report.classes[0].members] == [(2,), (1,)]

    def test_p7(self):
        report = equivalence_classes(7)
        assert report.count == 2
        assert tuple(sorted(report.orbit_sizes)) == (2, 6)
        assert all(c.members is None for c in report.classes)

    def test_p11_structure(self):
        report = equivalence_classes(11, include_members=True)
        assert report.count == 4
        assert sorted(c.size for c in report.classes) == [2, 10, 10, 10]
        small = [c for c in report.classes if c.size == 2][0]
        assert {m.members() for m in small.members} == {
            (1, 3, 4, 5, 9), (2, 6, 7, 8, 10)}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_sizes_divide_group_order(self, p):
        report = equivalence_classes(p)
        assert sum(c.size for c in report.classes) == report.total_sets
        assert all((p - 1) % c.size == 0 for c in report.classes)

    def test_representative_is_minimal_member(self):
        report = equivalence_classes(11, include_members=True)
        for c in report.classes:
            assert c.rep.bits == min(m.bits for m in c.members)
        assert [c.rep.bits for c in report.classes] == sorted(
            c.rep.bits for c in report.classes)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_orbits_of_the_whole_unit_group(self, p):
        # Orbits under every unit through the public act(), which maps the
        # members and shares no table with the primitive-root walk.
        half = (p - 1) // 2
        seen = set()
        expected = []
        for bits in range(1 << half):
            if bits in seen:
                continue
            s = SetMask(p, bits)
            orbit = sorted({act(a, s).bits for a in units(p)})
            assert orbit[0] == bits
            seen.update(orbit)
            expected.append((bits, len(orbit), orbit))
        report = equivalence_classes(p, include_members=True)
        assert [(c.rep.bits, c.size, [m.bits for m in c.members])
                for c in report.classes] == expected

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_orbit_from_the_complement(self, p):
        # _class_masks folds a mask whose top choice bit is set to its key;
        # the classes are pinned by test_orbits_of_the_whole_unit_group
        ones = (1 << (p - 1) // 2) - 1
        for c in equivalence_classes(p, include_members=True).classes:
            assert enumeration._class_masks(p, c.rep.bits ^ ones) == [
                m.bits for m in c.members]

    def test_walk_memory_per_mask(self):
        # one block's planes, and per class a mask and a size in arrays
        tracemalloc.start()
        try:
            report = equivalence_classes(37)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count == 7286
        assert peak / report.total_sets < 1

    def test_memory_per_mask_at_p41(self):
        # 2^20 masks in 32 blocks of 2^14 keys; the 26,216 classes' masks and
        # sizes take 0.15 bytes per mask
        tracemalloc.start()
        try:
            report = equivalence_classes(41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count == 26216
        assert peak / report.total_sets < 0.4

    @pytest.mark.parametrize("p", [p for p in range(3, 44, 2) if groups.is_prime(p)])
    def test_same_classes_as_the_key_walk(self, p):
        # p = 29, 31 and 37 have 2^13, 2^14 and 2^17 keys: less than, exactly
        # and more than one block
        reps, sizes = walk_classes(p)
        report = equivalence_classes(p)
        assert report.reps == reps
        assert report.orbit_sizes == sizes

    def test_inconsistent_sizes_raise(self, monkeypatch):
        # unit 3 taken for the identity fixes every key, so every stabilizer
        # grows and the sizes no longer add up to 2^6
        real = enumeration._choice_images

        def identity_for_3(p, a):
            return (list(range((p - 1) // 2)), 0) if a == 3 else real(p, a)
        monkeypatch.setattr(enumeration, "_choice_images", identity_for_3)
        with pytest.raises(InconsistencyError, match="class sizes"):
            equivalence_classes(13)

    def test_json_lines(self):
        report = equivalence_classes(3)
        assert list(report.json_lines()) == ['{"p":3,"rep":[2],"size":2}']
        with_members = equivalence_classes(3, include_members=True)
        assert list(with_members.json_lines()) == [
            '{"p":3,"rep":[2],"size":2,"members":[[2],[1]]}']


class TestBurnsideCount:
    def test_small_values(self):
        assert burnside_count(3) == 1
        assert burnside_count(7) == 2
        assert burnside_count(11) == 4

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            burnside_count(15)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
    def test_agrees_with_enumeration(self, p):
        assert burnside_count(p) == equivalence_classes(p).count

    def test_walk_must_cover_the_units(self, monkeypatch):
        # 1 taken for a primitive root fails the generator certificate
        monkeypatch.setattr(enumeration, "primitive_root", lambda p: 1)
        with pytest.raises(InconsistencyError, match="powers of 1"):
            burnside_count(11)

    def test_agrees_with_formula(self):
        primes = [p for p in range(3, 1010) if groups.is_prime(p)] + [4139, 28597, 100003]
        assert [burnside_count(p) for p in primes] == [class_count(p) for p in primes]


class TestGraphLevelSoundness:
    def test_p7_mask_equivalence_iff_isomorphic(self):
        z7 = cyclic(7)
        masks = list(all_sets(7))
        graphs = {s.bits: cayley_digraph(z7, s.members()) for s in masks}
        for s in masks:
            for t in masks:
                related = unit_multiplier(7, s.members(), t.members()) is not None
                found = isomorphic(graphs[s.bits], graphs[t.bits]) is not None
                assert related == found

    def test_p11_sampled_pairs(self):
        z11 = cyclic(11)
        rng = random.Random(1123)
        masks = list(all_sets(11))
        cache = {}

        def graph(s):
            if s.bits not in cache:
                cache[s.bits] = cayley_digraph(z11, s.members())
            return cache[s.bits]

        for _ in range(25):
            s, t = rng.choice(masks), rng.choice(masks)
            related = unit_multiplier(11, s.members(), t.members()) is not None
            assert related == (isomorphic(graph(s), graph(t)) is not None)
