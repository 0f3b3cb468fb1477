import json
import random
import time
import tracemalloc
from itertools import permutations
from operator import itemgetter
from pathlib import Path

import pytest

from vtt.enumeration import SetMask, _orbit, equivalence_classes, unit_multiplier
from vtt.errors import InconsistencyError, SizeLimitError
from vtt.graphs import (
    Digraph, cayley_digraph, cycle, k_cube, kneser, parse_graph_text, petersen, relabel,
    wreath_product)
from vtt.groups import AbelianGroup, cyclic
from vtt import cli, perm
from vtt.fixtures import Z25_SET
from vtt.perm import (
    PermGroup,
    automorphisms,
    burnside_orbit_count,
    compose,
    find_regular_subgroup,
    fixed_points,
    identity_perm,
    is_automorphism,
    isomorphic,
    orbits,
    perm_order,
    perm_str,
)

GOLDEN = Path(__file__).parent / "golden"
TRIANGLE = cayley_digraph(cyclic(3), {1})


def circulant_tournament(p, bits):
    return cayley_digraph(cyclic(p), set(SetMask(p, bits).members()))


def rotations(n):
    return PermGroup.from_generators(n, [tuple((x + 1) % n for x in range(n))])


def random_generators(rng, degree, n_gens):
    gens = []
    for _ in range(n_gens):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(tuple(images))
    return gens


def brute_force_closure(degree, gens):
    """Every product of gens: compose the newest products with each generator
    until none is new."""
    found = frontier = {identity_perm(degree)}
    while frontier:
        frontier = {compose(s, p) for p in frontier for s in gens} - found
        found = found | frontier
    return found


class TestPermBasics:
    def test_compose_applies_right_first(self, capsys, tmp_path):
        rng = random.Random(16)
        for n in range(1, 21):
            for _ in range(5):
                p, q = random_generators(rng, n, 2)
                assert compose(p, q) == tuple(p[q[i]] for i in range(n))
        # degrees 1 and 2 end to end, where itemgetter needs its guard
        for text, witness in (("digraph 1\n", [[0]]), ("graph 2\n0 1\n", [[0, 1], [1, 0]])):
            path = tmp_path / "small.graph"
            path.write_text(text)
            assert cli.main(["recognize", str(path), "--format", "json"]) == 0
            assert capsys.readouterr().out == json.dumps(
                {"n": len(witness), "vertex_transitive": True, "cayley": True,
                 "witness": witness}, separators=(",", ":")) + "\n"

    def test_order_and_cycles(self):
        assert perm_order(identity_perm(5)) == 1
        assert perm_order((1, 0, 3, 2, 4)) == 2
        assert perm_order((1, 2, 0, 4, 3)) == 6
        assert perm_str((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"
        assert perm_str(identity_perm(3)) == "()"

    def test_from_generators_closes(self):
        g = PermGroup.from_generators(3, [(1, 2, 0)])
        assert len(g) == 3
        assert identity_perm(3) in g

    def test_from_generators_walks_generator_products(self):
        # S_7 takes |G|*|gens| = 10,080 compositions; an all-pairs closure
        # needs about |G|^2 = 2.5e7
        start = time.perf_counter()
        s7 = PermGroup.from_generators(7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])
        assert time.perf_counter() - start < 1
        assert len(s7) == 5040

    def test_from_generators_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PermGroup.from_generators(3, [(0, 0, 1)])


class TestIsomorphic:
    def test_self_isomorphism(self):
        g = cayley_digraph(cyclic(7), {1, 2, 3})
        assert isomorphic(g, g) is not None

    def test_z7_scaled_set(self):
        g = cayley_digraph(cyclic(7), {1, 2, 3})
        h = cayley_digraph(cyclic(7), {3, 6, 2})
        # v -> 3v maps the first onto the second
        assert relabel(g, tuple(3 * v % 7 for v in range(7))) == h
        pi = isomorphic(g, h)
        assert pi is not None
        assert relabel(g, pi) == h

    def test_order_nine_tournaments_not_isomorphic(self):
        g9 = cayley_digraph(cyclic(9), {1, 7, 3, 5})
        g33 = cayley_digraph(AbelianGroup((3, 3)), {(0, 1), (2, 0), (1, 1), (2, 1)})
        assert isomorphic(g9, g33) is None

    def test_mismatched_sizes(self):
        assert isomorphic(TRIANGLE, cycle(4)) is None

    def test_witness_is_least_isomorphism(self):
        # the first isomorphism in lexicographic order of (pi[0], pi[1], ...),
        # or None, on pairs that are isomorphic and pairs that are not
        rng = random.Random(20261018)
        graphs = [cayley_digraph(cyclic(7), {1, 2, 4}), cycle(6), k_cube(2)]
        for _ in range(40):
            n = rng.randint(1, 7)
            density = rng.random()
            graphs.append(Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                                                if u != v and rng.random() < density]))
        pairs = []
        for g in graphs:
            images = list(range(g.n))
            rng.shuffle(images)
            h = relabel(g, images)
            arcs = h.arcs()
            if arcs and rng.random() < 0.5:  # move one arc: same arc count, maybe not isomorphic
                u, v = rng.choice(arcs)
                free = [(a, b) for a in range(g.n) for b in range(g.n)
                        if a != b and not h.adj[a] >> b & 1]
                if free:
                    arcs.remove((u, v))
                    h = Digraph.from_arcs(g.n, arcs + [rng.choice(free)])
            pairs.append((g, h))
        # circulants: refinement cannot split their vertices, so these pairs
        # reach individualization, the replayed refinement and the arc check
        for n in (4, 5, 6, 7, 8, 8):
            degree = rng.randint(1, n - 2)
            g = cayley_digraph(cyclic(n), set(rng.sample(range(1, n), degree)))
            pairs.append((g, relabel(g, rng.sample(range(n), n))))
            pairs.append((g, cayley_digraph(cyclic(n), set(rng.sample(range(1, n), degree)))))
        # equitable down to discrete partitions that are no isomorphism: only the arc check refutes
        pairs.append((cayley_digraph(cyclic(6), {1, 3}), cayley_digraph(cyclic(6), {2, 3})))
        pairs.append((cayley_digraph(cyclic(8), {1, 2, 4}), cayley_digraph(cyclic(8), {1, 4, 6})))
        for g, h in pairs:
            target = set(h.arcs())
            least = next((pi for pi in permutations(range(g.n))
                          if len(target) == len(g.arcs())
                          and all((pi[u], pi[v]) in target for u, v in g.arcs())), None)
            assert isomorphic(g, h) == least

    @pytest.mark.parametrize("p", [37, 41, 43, 47, 53])
    def test_circulant_pairs_follow_unit_multiples(self, p):
        # two tournaments Cay(Z_p, S), Cay(Z_p, T) of prime order are isomorphic
        # iff T = aS for a unit a (Turner 1967); half the pairs are unit multiples
        rng = random.Random(p)
        half = (p - 1) // 2
        for k in range(10):
            s = SetMask(p, rng.getrandbits(half)).members()
            if k % 2:
                t = [rng.randrange(1, p) * x % p for x in s]
            else:
                t = SetMask(p, rng.getrandbits(half)).members()
            g, h = cayley_digraph(cyclic(p), set(s)), cayley_digraph(cyclic(p), set(t))
            assert (isomorphic(g, h) is not None) == (unit_multiplier(p, s, t) is not None)

    def test_search_budget(self, monkeypatch):
        g = wreath_product(cycle(4), cycle(4))
        h = relabel(g, random.Random(5).sample(range(16), 16))
        monkeypatch.setattr(perm, "MAX_SEARCH_NODES", 5)
        with pytest.raises(SizeLimitError, match="5 nodes"):
            isomorphic(g, h)
        with pytest.raises(SizeLimitError, match="5 nodes"):
            automorphisms(g)

    @pytest.mark.parametrize("name, nodes", [
        ("c4-c4", 15), ("c5-c3", 15), ("clebsch", 10), ("petersen", 4), ("q4", 6),
        ("z7-tournament", 2), ("fixture-a", 23)])
    def test_search_tree_size(self, monkeypatch, name, nodes):
        # the search visits exactly this many nodes; a search that placed
        # vertices or tried images in another order would change the tree
        if name == "fixture-a":
            g, h = wreath_product(cycle(5), cycle(5)), cayley_digraph(cyclic(25), Z25_SET)
        else:
            g = parse_graph_text((GOLDEN / f"{name}.graph").read_text())
            images = list(range(g.n))
            random.Random(name).shuffle(images)
            h = relabel(g, images)
        monkeypatch.setattr(perm, "MAX_SEARCH_NODES", nodes)
        assert isomorphic(g, h) is not None
        monkeypatch.setattr(perm, "MAX_SEARCH_NODES", nodes - 1)
        with pytest.raises(SizeLimitError):
            isomorphic(g, h)

    def test_deep_search_does_not_recurse(self):
        # refinement never splits the empty graph, so the search individualizes
        # one vertex per depth, 1,200 deep
        empty = Digraph.from_arcs(1200, [])
        assert isomorphic(empty, empty) == identity_perm(1200)

    def test_witness_maps_arcs_exactly(self):
        g = petersen()
        rng = random.Random(3)
        images = list(range(10))
        rng.shuffle(images)
        h = relabel(g, images)
        pi = isomorphic(g, h)
        assert {(pi[u], pi[v]) for u, v in g.arcs()} == set(h.arcs())

    @pytest.mark.parametrize("g, h, p", [
        (Digraph.from_arcs(3, [(0, 1), (1, 2)]), Digraph.from_arcs(3, [(0, 1), (1, 2)]), (2, 1, 0)),
        # each arc of g maps onto an arc of h, but h has one more
        (Digraph.from_arcs(3, [(0, 1)]), Digraph.from_arcs(3, [(0, 1), (1, 2)]), (0, 1, 2)),
    ], ids=["arc-not-kept", "arc-counts-differ"])
    def test_witness_is_verified(self, monkeypatch, g, h, p):
        monkeypatch.setattr(perm, "_search", lambda *args: iter([p]))
        with pytest.raises(InconsistencyError, match="verification"):
            isomorphic(g, h)


class TestAutomorphisms:
    def test_directed_triangle_has_rotations_only(self):
        aut = automorphisms(TRIANGLE)
        assert len(aut) == 3
        assert tuple(aut) == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_petersen_group_order(self):
        assert len(automorphisms(petersen())) == 120

    def test_contains_translations(self):
        g = cayley_digraph(cyclic(5), {1, 2})
        aut = automorphisms(g)
        for w in range(5):
            assert tuple((v + w) % 5 for v in range(5)) in aut

    @pytest.mark.parametrize("name, nodes", [
        ("c4-c4", 84), ("c5-c3", 100), ("clebsch", 30), ("petersen", 8), ("q4", 13),
        ("z7-tournament", 1)])
    def test_search_tree_size(self, monkeypatch, name, nodes):
        # the search visits exactly this many nodes (BENCH_16.json); a refinement
        # that split cells in another order would change the tree
        g = parse_graph_text((GOLDEN / f"{name}.graph").read_text())
        monkeypatch.setattr(perm, "MAX_SEARCH_NODES", nodes)
        automorphisms(g)
        monkeypatch.setattr(perm, "MAX_SEARCH_NODES", nodes - 1)
        with pytest.raises(SizeLimitError):
            automorphisms(g)

    @pytest.mark.parametrize("name", ["c4-c4", "c5-c3", "clebsch", "petersen", "q4",
                                      "z7-tournament"])
    def test_chain_stops_at_the_first_discrete_partition(self, monkeypatch, name):
        # every level from there on is trivial, so no deeper partition is refined
        g = parse_graph_text((GOLDEN / f"{name}.graph").read_text())
        depth = perm._chain(g)
        first = next(u for u in range(g.n) if len(depth(u)[0]) == g.n)
        asked = []
        monkeypatch.setattr(perm, "_chain", lambda g: lambda u: asked.append(u) or depth(u))
        automorphisms(g)
        assert max(asked) == first

    def test_cap(self):
        big = cycle(17)
        with pytest.raises(SizeLimitError, match="16"):
            automorphisms(big)
        automorphisms(cycle(17), cap=17)  # explicit cap raise is allowed

    def test_element_ceiling(self, monkeypatch):
        monkeypatch.setattr(perm, "MAX_AUT_ELEMENTS", 120)
        assert len(automorphisms(petersen())) == 120
        monkeypatch.setattr(perm, "MAX_AUT_ELEMENTS", 119)
        with pytest.raises(SizeLimitError, match="119"):
            automorphisms(petersen())

    @pytest.mark.parametrize("g", [
        TRIANGLE,
        Digraph.from_arcs(3, [(0, 1), (1, 2)]),
        Digraph.from_arcs(5, []),
        cycle(6),
        k_cube(2),
        cayley_digraph(cyclic(7), {1, 2, 3}),
        cayley_digraph(cyclic(6), {1, 2}),
        Digraph.from_arcs(7, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 6), (6, 5), (0, 5)]),
    ], ids=["triangle", "path", "empty5", "C6", "Q2", "Z7", "Z6", "mixed7"])
    def test_matches_brute_force(self, g):
        everything = tuple(p for p in permutations(range(g.n)) if is_automorphism(g, p))
        assert tuple(automorphisms(g)) == everything

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
    def test_circulant_order_from_class_size(self, p):
        # Aut(Cay(Z_p, S)) = Z_p x| H with |H| = (p-1)/size of the class of S
        if p <= 23:
            sizes = {info.rep.bits: info.size for info in equivalence_classes(p).classes}
        else:  # mask 0 and seeded masks, with the Paley tournament where p = 3 mod 4
            rng = random.Random(p)
            masks = {0, *(rng.getrandbits((p - 1) // 2) for _ in range(3))}
            sizes = {bits: len(_orbit(p, bits)) for bits in masks}
            if p % 4 == 3:
                paley = SetMask.from_members(p, {x * x % p for x in range(1, p)}).bits
                assert len(_orbit(p, paley)) == 2
                sizes[paley] = 2
        for bits, size in sizes.items():
            g = circulant_tournament(p, bits)
            assert len(automorphisms(g, cap=p)) == p * (p - 1) // size

    def test_circulant_search_stays_polynomial(self):
        # the invariant-only search took minutes here: each vertex looked alike
        start = time.perf_counter()
        aut = automorphisms(circulant_tournament(53, 0), cap=53)
        assert time.perf_counter() - start < 2
        assert len(aut) == 53

    def test_order_checked_before_elements(self, monkeypatch):
        # the empty graph on 8 vertices has 8! = 40,320 automorphisms
        empty = Digraph.from_arcs(8, [])
        monkeypatch.setattr(perm, "MAX_AUT_ELEMENTS", 40_319)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="40319"):
                automorphisms(empty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # 40,320 8-tuples would take about 5 MB
        monkeypatch.setattr(perm, "MAX_AUT_ELEMENTS", 40_320)
        assert len(automorphisms(empty)) == 40_320


class TestOrbits:
    def test_trivial_group(self):
        g = PermGroup.from_generators(4, [])
        assert orbits(g, 4) == [[0], [1], [2], [3]]

    def test_translations_single_orbit(self):
        g = PermGroup.from_generators(5, [(1, 2, 3, 4, 0)])
        assert orbits(g, 5) == [[0, 1, 2, 3, 4]]

    def test_petersen_single_orbit(self):
        aut = automorphisms(petersen())
        assert orbits(aut, 10) == [list(range(10))]

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            orbits(PermGroup.from_generators(3, []), 4)

    def test_orbit_walks_points(self):
        # a walk over whole permutations took minutes on the 1000 rotations
        g = rotations(1000)
        start = time.perf_counter()
        assert g.orbit(0) == set(range(1000))
        assert time.perf_counter() - start < 1


class TestBurnside:
    def test_trivial_group(self):
        assert burnside_orbit_count(PermGroup.from_generators(6, []), 6) == 6

    def test_rotations_of_c5(self):
        g = PermGroup.from_generators(5, [(1, 2, 3, 4, 0)])
        assert burnside_orbit_count(g, 5) == 1

    def test_agrees_with_orbit_partition_on_random_groups(self):
        rng = random.Random(20260808)
        for _ in range(50):
            degree = rng.randint(3, 6)
            gens = random_generators(rng, degree, rng.randint(1, 2))
            g = PermGroup.from_generators(degree, gens)
            assert burnside_orbit_count(g, degree) == len(orbits(g, degree))
            closure = brute_force_closure(degree, gens)
            assert list(g) == sorted(closure) and len(g) == len(closure)
            # the walk keyed by the image of u: one element of the closure per point of u's orbit
            u = rng.randrange(degree)
            reps = perm._walk(gens, {u: identity_perm(degree)}, itemgetter(u))
            assert reps.keys() == {x[u] for x in closure}
            assert all(x[u] == w and x in closure for w, x in reps.items())

    def test_non_group_raises(self):
        # a 3-cycle without its inverse: fixed-point sum 3 over 2 "elements"
        bad = PermGroup.from_elements(3, [identity_perm(3), (1, 2, 0)])
        with pytest.raises(InconsistencyError):
            burnside_orbit_count(bad, 3)


class TestOrbitStabilizer:
    @pytest.mark.parametrize("g", [
        TRIANGLE,
        cycle(5),
        k_cube(3),
        cayley_digraph(cyclic(7), {1, 2, 3}),
        petersen(),
    ])
    def test_orbit_stabilizer_product(self, g):
        aut = automorphisms(g)
        for v in range(g.n):
            assert len(aut.stabilizer(v)) * len(aut.orbit(v)) == len(aut)

    def test_iteration_nests_only_nontrivial_levels(self):
        # 1000 levels, of which only level 0 holds more than the identity
        g = rotations(1000)
        assert sum(1 for _ in g) == 1000
        assert [x[0] for x in g] == list(range(1000))

    def test_conjugate_stabilizers(self):
        aut = automorphisms(petersen())
        rng = random.Random(11)
        elems = list(aut)
        for _ in range(10):
            g = rng.choice(elems)
            v = rng.randrange(10)
            inverse = tuple(sorted(range(10), key=g.__getitem__))
            conj = {compose(compose(g, h), inverse) for h in aut.stabilizer(v)}
            assert conj == set(aut.stabilizer(g[v]))


class TestRegularSubgroup:
    @pytest.mark.parametrize("group,s", [
        (cyclic(3), {1}),
        (cyclic(7), {1, 2, 3}),
        (cyclic(9), {1, 7, 3, 5}),
        (AbelianGroup((3, 3)), {(0, 1), (2, 0), (1, 1), (2, 1)}),
        (AbelianGroup((2, 4)), {(0, 1), (0, 3), (1, 0)}),
        (cyclic(12), {1, 11, 3, 9}),
    ])
    def test_cayley_digraphs_have_regular_subgroup(self, group, s):
        g = cayley_digraph(group, s)
        reg = find_regular_subgroup(automorphisms(g), g.n)
        assert reg is not None
        assert len(reg) == g.n
        assert len(reg.orbit(0)) == g.n
        assert all(fixed_points(p) == 0 for p in reg if p != identity_perm(g.n))

    def test_triangle_witness_is_rotations(self):
        reg = find_regular_subgroup(automorphisms(TRIANGLE), 3)
        assert tuple(reg) == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_petersen_is_not_cayley(self):
        aut = automorphisms(petersen())
        assert find_regular_subgroup(aut, 10) is None
        # the classic obstruction: every involution fixes a vertex
        involutions = [p for p in aut if perm_order(p) == 2]
        assert involutions and all(fixed_points(p) > 0 for p in involutions)

    def test_kneser_6_2_is_not_cayley(self):
        # K(6,2) is vertex-transitive, but no subgroup of S_6 acts regularly on its 15 vertices
        g = kneser(6, 2, 0)
        aut = automorphisms(g)
        assert len(aut) == 720
        assert orbits(aut, 15) == [list(range(15))]
        assert find_regular_subgroup(aut, 15) is None

    def test_search_agrees_with_brute_force_on_random_groups(self):
        # every group of order at most 6 is 2-generated, and a regular group's
        # non-identity elements are fixed-point-free, so a regular subgroup
        # exists iff one or two such elements generate a transitive group of
        # order n
        rng = random.Random(20261018)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = PermGroup.from_generators(n, random_generators(rng, n, rng.randint(1, 2)))
            fpf = [p for p in g if not fixed_points(p)]
            exists = any(len(h := PermGroup.from_generators(n, [a, b])) == n
                         and len(h.orbit(0)) == n for a in fpf for b in fpf)
            reg = find_regular_subgroup(g, n)
            assert (reg is not None) == exists
            if reg is not None:
                assert len(reg) == n and len(reg.orbit(0)) == n
                assert set(reg) <= set(g)

    def test_semiregular_walk_stopping_rules(self):
        ident = identity_perm(5)
        walk = perm._walk
        # (0 1 2)(3 4) moves every point, its square fixes 3 and 4
        assert walk([(1, 2, 0, 4, 3)], {0: ident}, itemgetter(0), True) is None
        # (0 1 2 3) and (0 1)(2 3) both take 0 to 1; without this rule the walk
        # would keep one product per image of 0, none fixing a point
        assert walk([(1, 2, 3, 0), (1, 0, 3, 2)], {0: ident[:4]}, itemgetter(0), True) is None
        # otherwise the walk holds the group, whether it starts from the identity
        # or grows a closed group by the last generator: here on random pairs
        rng = random.Random(20261019)
        for _ in range(200):
            n = rng.randint(2, 6)
            a, b = random_generators(rng, n, 2)
            closure = brute_force_closure(n, [a, b])
            semiregular = len({x[0] for x in closure}) == len(closure) and all(
                x == identity_perm(n) or not fixed_points(x) for x in closure)
            fresh = walk([a, b], {0: identity_perm(n)}, itemgetter(0), True)
            start = walk([a], {0: identity_perm(n)}, itemgetter(0), True)
            grown = start and walk([a, b], dict(start), itemgetter(0), True, len(start))
            assert (fresh is not None) == semiregular
            if semiregular:
                assert set(fresh.values()) == set(grown.values()) == closure

    def test_search_keeps_the_group_as_a_chain(self):
        # C5[C3] has 77,760 automorphisms; a list of them takes about 14 MB
        g = wreath_product(cycle(5), cycle(3))
        tracemalloc.start()
        try:
            aut = automorphisms(g)
            blocks = orbits(aut, g.n)
            reg = find_regular_subgroup(aut, g.n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(aut) == 77_760
        assert blocks == [list(range(15))]
        assert len(reg) == 15

    def test_isomorphism_keeps_no_arc_list(self):
        # Cay(Z_307, S) has 46,971 arcs; a set of them as tuples takes about 10 MB
        p = 307
        rng = random.Random(p)
        g = circulant_tournament(p, rng.getrandbits((p - 1) // 2))
        h = relabel(g, rng.sample(range(p), p))
        tracemalloc.start()
        try:
            pi = isomorphic(g, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert relabel(g, pi) == h

    def test_relabelled_circulant_tournament_of_order_1009(self):
        p = 1009
        rng = random.Random(p)
        members = SetMask(p, rng.getrandbits((p - 1) // 2)).members()
        images = rng.sample(range(p), p)  # u -> u + s becomes images[u] -> images[u + s]
        adj = [0] * p
        for u in range(p):
            adj[images[u]] = sum(1 << images[(u + s) % p] for s in members)
        g = Digraph(p, tuple(adj))
        reg = find_regular_subgroup(automorphisms(g, cap=p), p)
        assert len(reg) == p
        assert all(fixed_points(x) == 0 for x in reg if x != identity_perm(p))
        generator = next(x for x in reg if x[0] != 0)
        assert perm_order(generator) == p  # so the witness is cyclic
        assert is_automorphism(g, generator)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            find_regular_subgroup(PermGroup.from_generators(3, [(1, 2, 0)]), 4)

    def test_one_vertex_is_cayley(self):
        reg = find_regular_subgroup(automorphisms(Digraph(1, (0,))), 1)
        assert tuple(reg) == ((0,),)

    def test_non_transitive_graph(self):
        # path 0 -> 1 -> 2: only the identity automorphism, no regular subgroup
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert find_regular_subgroup(automorphisms(g), g.n) is None
