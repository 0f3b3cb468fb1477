import random
from itertools import chain, combinations
from pathlib import Path

import pytest

from vtt.graphs import (
    Digraph,
    cayley_digraph,
    cycle,
    dot_from_text,
    is_tournament,
    k_cube,
    kneser,
    parse_graph_text,
    petersen,
    relabel,
    to_dot,
    triangle_profile,
    validate_tournament_set,
    wreath_product,
)
from vtt.groups import AbelianGroup, cyclic
from vtt.perm import is_automorphism, isomorphic

GOLDEN = Path(__file__).parent / "golden"
Z33 = AbelianGroup((3, 3))
Z33_SET = {(0, 1), (2, 0), (1, 1), (2, 1)}


# row strings change shape at one vertex, and at a word of bits on either side
ROW_SIZES = [1, 2, 3, 7, 63, 64, 65]


def brute_triangles(g, u, v):
    return sum(1 for w in range(g.n)
               if w not in (u, v) and g.adj[v] >> w & 1 and g.adj[w] >> u & 1)


def random_digraph(n, seed):
    rng = random.Random(seed)
    return Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                                 if u != v and rng.random() < 0.5])


def random_tournament(n, seed):
    rng = random.Random(seed)
    return Digraph.from_arcs(n, [(u, v) if rng.random() < 0.5 else (v, u)
                                 for u, v in combinations(range(n), 2)])


class TestDigraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Digraph(2, (1, 0))
        with pytest.raises(ValueError):
            Digraph.from_arcs(3, [(0, 0)])

    def test_from_arcs_and_accessors(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert g.arcs() == [(0, 1), (1, 2), (2, 0)]
        assert g.adj[0].bit_count() == g.preds[0].bit_count() == 1
        assert g.adj[1] == 1 << 2
        assert g.adj != g.preds  # not symmetric

    def test_preds_match_arcs(self):
        g = petersen()
        for u, v in g.arcs():
            assert g.preds[v] >> u & 1
        for n in ROW_SIZES:
            g = random_digraph(n, n)
            preds = [0] * n
            for u, v in g.arcs():
                preds[v] |= 1 << u
            assert g.preds == tuple(preds)

    def test_relabel_matches_per_arc_relabelling(self):
        for n in ROW_SIZES:
            g = random_digraph(n, n)
            images = random.Random(-n).sample(range(n), n)
            adj = [0] * n
            for u, v in g.arcs():
                adj[images[u]] |= 1 << images[v]
            assert relabel(g, images).adj == tuple(adj)


def test_cayley_directed_triangle():
    g = cayley_digraph(cyclic(3), {1})
    assert g.arcs() == [(0, 1), (1, 2), (2, 0)]


def test_cayley_c5():
    g = cayley_digraph(cyclic(5), {1, 4})
    assert g == cycle(5)
    assert g.adj == g.preds  # symmetric
    assert all(bits.bit_count() == 2 for bits in g.adj)


def test_cayley_z9_out_neighbors():
    g = cayley_digraph(cyclic(9), {1, 7, 3, 5})
    assert [w for w in range(9) if g.adj[0] >> w & 1] == [1, 3, 5, 7]


def per_arc_cayley_digraph(group, s):
    """Reference Cay(group, s): one group.add and group.index per arc."""
    members = frozenset(group.coerce(x) for x in s)
    adj = [0] * group.order
    for i, g in enumerate(group.elements()):
        for step in members:
            adj[i] |= 1 << group.index(group.add(g, step))
    return Digraph(group.order, tuple(adj))


@pytest.mark.parametrize("moduli", [(2,), (7,), (25,), (3, 3), (2, 2, 2, 2), (4, 4), (5, 3),
                                    (2, 3, 5), (3, 2, 4), (4, 2, 2)])
def test_cayley_matches_per_arc_construction(moduli):
    group = AbelianGroup(moduli)
    rng = random.Random(sum(moduli))
    nonidentity = group.elements()[1:]
    for _ in range(20):
        s = rng.sample(nonidentity, rng.randrange(len(nonidentity) + 1))
        assert cayley_digraph(group, s).adj == per_arc_cayley_digraph(group, s).adj


def test_cayley_rejects_identity():
    with pytest.raises(ValueError):
        cayley_digraph(cyclic(5), {0, 1})
    with pytest.raises(ValueError):
        cayley_digraph(Z33, {(0, 0)})


def test_validate_tournament_set():
    assert validate_tournament_set(cyclic(11), {1, 2, 3, 4, 5})
    assert validate_tournament_set(Z33, Z33_SET)
    assert not validate_tournament_set(cyclic(11), {1, 2, 3, 4, 7})  # 4 and -4 both in
    assert not validate_tournament_set(cyclic(11), {1, 2, 3, 4})     # 5/-5 uncovered


def powerset(xs):
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


@pytest.mark.parametrize("moduli", [(2,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2)])
def test_no_tournament_sets_on_even_order_groups(moduli):
    group = AbelianGroup(moduli)
    nonidentity = [x for x in group.elements() if x != group.identity]
    for subset in powerset(nonidentity):
        assert not validate_tournament_set(group, subset)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_valid_sets_give_tournaments(p):
    group = cyclic(p)
    half = (p - 1) // 2
    for bits in range(1 << half):
        members = {i if bits >> (i - 1) & 1 else p - i for i in range(1, half + 1)}
        assert validate_tournament_set(group, members)
        g = cayley_digraph(group, members)
        assert is_tournament(g)
        assert all(g.adj[v].bit_count() == g.preds[v].bit_count() == half for v in range(p))


def test_is_tournament_brute():
    g = cayley_digraph(cyclic(7), {1, 2, 3})
    for u in range(7):
        for v in range(u + 1, 7):
            assert g.adj[u] >> v & 1 != g.adj[v] >> u & 1
    assert is_tournament(g)
    assert not is_tournament(cycle(5))
    assert not is_tournament(Digraph(3, (0, 0, 0)))
    for n in ROW_SIZES:
        g = random_tournament(n, n)
        assert is_tournament(g)
        if n == 1:
            continue
        rng = random.Random(n)
        u, v = rng.choice(g.arcs())
        assert not is_tournament(Digraph.from_arcs(n, set(g.arcs()) - {(u, v)}))  # dropped
        assert not is_tournament(Digraph.from_arcs(n, g.arcs() + [(v, u)]))  # doubled


def test_k_cube():
    assert isomorphic(k_cube(2), cycle(4)) is not None
    q3 = k_cube(3)
    assert q3.n == 8 and q3.adj == q3.preds
    assert all(bits.bit_count() == 3 for bits in q3.adj)
    with pytest.raises(ValueError):
        k_cube(0)


def test_kneser_petersen():
    pet = kneser(5, 2, 0)
    assert pet.n == 10
    assert len(pet.arcs()) == 30  # 15 undirected edges
    assert pet.adj == pet.preds
    assert all(bits.bit_count() == 3 for bits in pet.adj)
    with pytest.raises(ValueError):
        kneser(2, 3, 0)


def test_cycle_validation():
    with pytest.raises(ValueError):
        cycle(2)


class TestWreathProduct:
    def test_single_vertex_is_identity(self):
        h = cayley_digraph(cyclic(7), {1, 2, 3})
        assert wreath_product(Digraph(1, (0,)), h) == h

    def test_arc_count_law(self):
        cases = [(cayley_digraph(cyclic(3), {1}), cycle(4)),
                 (cycle(5), cycle(5)),
                 (petersen(), cayley_digraph(cyclic(3), {1}))]
        for g, h in cases:
            w = wreath_product(g, h)
            assert len(w.arcs()) == h.n * h.n * len(g.arcs()) + g.n * len(h.arcs())

    def test_wreath_square_of_c5_is_circulant(self):
        w = wreath_product(cycle(5), cycle(5))
        target = cayley_digraph(cyclic(25), {1, 4, 5, 6, 9, 11, 14, 16, 19, 20, 21, 24})
        # explicit digit swap (outer, inner) -> 5*inner + outer, then double-check
        # with the search engine
        swap = tuple(5 * (i % 5) + i // 5 for i in range(25))
        assert relabel(w, swap) == target
        assert isomorphic(w, target) is not None


class TestTriangleProfile:
    def test_directed_triangle(self):
        prof = triangle_profile(cayley_digraph(cyclic(3), {1}))
        assert prof.summary == (1, 1, 1)

    def test_z9_arc_count_is_four(self):
        prof = triangle_profile(cayley_digraph(cyclic(9), {1, 7, 3, 5}))
        counts = {(u, v): c for u, v, c in prof.arc_counts}
        assert counts[(0, 1)] == 4
        assert prof.max_count == 4

    def test_z33_profile_matches_brute_force(self):
        g = cayley_digraph(Z33, Z33_SET)
        prof = triangle_profile(g)
        assert prof.max_count < 4
        # exhaustive triple-loop oracle over all 36 arcs
        assert {(u, v): c for u, v, c in prof.arc_counts} == {
            (u, v): brute_triangles(g, u, v) for u, v in g.arcs()}
        assert prof.summary == (1,) * 9 + (3,) * 27

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError):
            triangle_profile(cycle(5))

    def test_summary_is_relabel_invariant(self):
        g = cayley_digraph(cyclic(9), {1, 7, 3, 5})
        rng = random.Random(7)
        base = triangle_profile(g).summary
        for _ in range(10):
            images = list(range(9))
            rng.shuffle(images)
            assert triangle_profile(relabel(g, images)).summary == base


@pytest.mark.parametrize("group,s", [
    (cyclic(7), {1, 2, 3}),
    (cyclic(9), {1, 3, 5, 7}),
    (Z33, Z33_SET),
    (cyclic(25), {1, 4, 5, 6, 9, 11, 14, 16, 19, 20, 21, 24}),
    (AbelianGroup((2, 4)), {(0, 1), (0, 3), (1, 0)}),
    (cyclic(81), {1, 2, 4, 8, 16, 32, 64, 47}),
])
def test_translations_are_automorphisms(group, s):
    g = cayley_digraph(group, s)
    for w in group.elements():
        images = tuple(group.index(group.add(x, w)) for x in group.elements())
        assert is_automorphism(g, images)


class TestExport:
    def test_dot(self):
        text = to_dot(cayley_digraph(cyclic(3), {1}))
        assert text.startswith("digraph G {")
        assert "  0 -> 1;" in text

    def test_export_is_deterministic(self):
        g = cayley_digraph(cyclic(9), {1, 7, 3, 5})
        assert to_dot(g) == to_dot(g)

    @pytest.mark.parametrize("name", ["c4-c4", "c5-c3", "clebsch", "petersen", "q4", "z7-tournament"])
    def test_dot_from_text_matches_parsed_graph(self, name):
        text = (GOLDEN / f"{name}.graph").read_text()
        assert dot_from_text(text) == to_dot(parse_graph_text(text))

    def test_dot_from_text_sorts_and_merges_arcs(self):
        text = "digraph 3\n2 0\n0 1\n2 0\n"
        assert dot_from_text(text) == to_dot(parse_graph_text(text))
        assert dot_from_text(text) == "digraph G {\n  0 -> 1;\n  2 -> 0;\n}\n"

    @pytest.mark.parametrize("text", ["", "graph 0\n", "digraph 2\n0 0\n", "digraph 2\n0 2\n",
                                      "digraph 2\n0 1 1\n", "digraph 2\n0 x\n"])
    def test_dot_from_text_rejects_what_parsing_rejects(self, text):
        with pytest.raises(ValueError):
            parse_graph_text(text)
        with pytest.raises(ValueError):
            dot_from_text(text)


class TestParse:
    def test_digraph_header(self):
        g = parse_graph_text("digraph 3\n0 1\n1 2\n2 0\n")
        assert g == cayley_digraph(cyclic(3), {1})

    def test_graph_header_applies_symmetric_closure(self):
        g = parse_graph_text("graph 3\n0 1\n1 2\n2 0\n")
        assert g.adj == g.preds
        assert len(g.arcs()) == 6

    def test_round_trip_through_edge_list(self):
        g = petersen()
        edges = "".join(f"{u} {v}\n" for u, v in g.arcs())
        assert parse_graph_text("digraph 10\n" + edges) == g

    @pytest.mark.parametrize("text", [
        "", "triangle 3\n0 1\n", "digraph x\n0 1\n", "digraph 3\n0\n",
        "digraph 3\n0 3\n", "digraph 3\n1 1\n",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_graph_text(text)
