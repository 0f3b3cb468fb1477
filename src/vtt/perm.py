"""Permutations, digraph isomorphism search, automorphism groups, orbits, and
Cayley recognition.

Groups grow by one breadth-first walk over generator products composed in C,
`_walk`: one product per key value, or, semiregular, until a product shows the
group is not.  `_search`, depth first on an explicit stack, yields the least
isomorphisms g -> h that respect paired vertex partitions: colour refinement
(McKay & Piperno 2014) splits g's cells by out- and in-neighbour counts in each
other cell until equitable, once per depth; vertices are individualized in
ascending order, each with its images ascending (`graphs._ascending_bits`), and
g's splits replayed on h; a discrete pair of partitions is a map, kept iff one
`graphs.relabel` takes g's rows to h's.  `isomorphic` searches from one root.
`automorphisms` builds a stabilizer chain along the base 0..n-1 (Sims 1970)
below the first discrete partition, with `_walk` transversals and one search
per level.  A `PermGroup` is that chain: its order is the product of the basic
orbit lengths, and `_products` walks its elements lazily.  Results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import eq, itemgetter

from .errors import InconsistencyError, SizeLimitError
from .graphs import Digraph, _ascending_bits, relabel

Permutation = tuple[int, ...]

DEFAULT_AUT_CAP = 16
# Largest automorphism group order admitted (C5[C3] has 77,760): the regular-
# subgroup search walks cosets of G_1, of 15! elements for the empty 16-vertex graph.
MAX_AUT_ELEMENTS = 100_000
# Most search nodes one `isomorphic` or `automorphisms` call may visit; the
# golden, benchmark and 1009-vertex test searches peak at 100 (BENCH_16.json).
MAX_SEARCH_NODES = 10_000


def identity_perm(n: int) -> Permutation:
    return tuple(range(n))


def _after(q: Permutation):
    """p -> compose(p, q); itemgetter of one index returns a bare element."""
    return itemgetter(*q) if len(q) > 1 else lambda p: tuple(p[i] for i in q)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition applying q first, then p."""
    return _after(q)(p)


def perm_cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each rotated to start at its minimum, sorted."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def perm_order(p: Permutation) -> int:
    return math.lcm(*(len(c) for c in perm_cycles(p)), 1)


def fixed_points(p: Permutation) -> int:
    return sum(map(eq, p, range(len(p))))


def perm_str(p: Permutation) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in perm_cycles(p)) or "()"


@dataclass(frozen=True)
class PermGroup:
    """A permutation group kept as a stabilizer chain along the base 0..n-1.

    `levels[u]` maps each point of u's orbit under G_u, the elements fixing
    0..u-1, to one element of G_u that takes u there.  The group's elements
    are the products of one element per level, walked by `_products`."""

    degree: int
    levels: tuple[dict[int, Permutation], ...]

    def __len__(self) -> int:
        return math.prod(len(level) for level in self.levels)

    def __iter__(self):
        return _products(self.levels, 0, identity_perm(self.degree))

    @classmethod
    def from_generators(cls, degree: int, generators) -> "PermGroup":
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"{g} is not a permutation of degree {degree}")
        ident = identity_perm(degree)
        return cls.from_elements(degree, _walk(gens, {ident: ident}, lambda p: p).values())

    @classmethod
    def from_elements(cls, degree: int, elements) -> "PermGroup":
        """The chain of the group made of exactly these elements."""
        ident = identity_perm(degree)
        levels = [{u: ident} for u in range(degree)]
        for p in elements:
            u = next((u for u in range(degree) if p[u] != u), None)
            if u is not None:
                levels[u].setdefault(p[u], p)
        return cls(degree, tuple(levels))

    def orbit(self, v: int) -> set[int]:
        """The points that v reaches, breadth first under the level
        representatives other than the identity, which generate the group."""
        generators = [t for u, level in enumerate(self.levels)
                      for w, t in level.items() if w != u]
        reached, queue = {v}, [v]
        for x in queue:
            for t in generators:
                if t[x] not in reached:
                    reached.add(t[x])
                    queue.append(t[x])
        return reached

    def stabilizer(self, v: int) -> "PermGroup":
        return PermGroup.from_elements(self.degree, (p for p in self if p[v] == v))


def _products(levels, u: int, x: Permutation, moving: bool = False):
    """x times each product of one element per level from u on, ascending, as
    level v's t puts x[t[v]] at v and later levels fix 0..v.  Only levels
    with more than one element are walked, so the nesting is as deep as the
    group has such levels.  With moving, a branch ends once its product
    fixes a point whose image no later level changes."""
    steps = [v for v in range(u, len(levels)) if len(levels[v]) > 1]
    # step i: its level as (t[v], x -> compose(x, t)) pairs, and the points final in x there
    reps = [[(w, _after(t)) for w, t in levels[v].items()] for v in steps]
    final = [(slice(a, b), range(a, b)) for a, b in zip([u, *steps], [*steps, len(levels)])]

    def walk(i: int, x: Permutation):
        if moving and any(map(eq, x[final[i][0]], final[i][1])):
            return
        if i == len(steps):
            yield x
            return
        for _, after_t in sorted([(x[w], after_t) for w, after_t in reps[i]]):
            yield from walk(i + 1, after_t(x))

    return walk(0, x)


def _keyed(d: Digraph, cell: int, split: int) -> dict[int, int]:
    """cell's vertices as masks by their key (out-, in-neighbours in split)."""
    radix, adj, preds = d.n + 1, d.adj, d.preds
    keyed: dict[int, int] = {}
    while cell:
        low = cell & -cell
        v = low.bit_length() - 1
        key = (adj[v] & split).bit_count() * radix + (preds[v] & split).bit_count()
        keyed[key] = keyed.get(key, 0) | low
        cell ^= low
    return keyed


def _refine(g: Digraph, cells: list[int], splitters: list[int]) -> tuple[list[int], list]:
    """g's partition refined in place until equitable, and its trace.  Cells
    are bitmasks.  A splitter splits each non-singleton cell by `_keyed`; by
    sorted key, the first piece keeps the index and the rest are appended and
    queued, so no index depends on vertex labels.  The trace holds one
    (splitter, cell, ((key, size), ...)) per cell examined, in order."""
    queue = list(splitters)
    trace = []
    while queue and len(cells) < g.n:
        s = queue.pop()
        for k in range(len(cells)):
            if not cells[k] & (cells[k] - 1):
                continue  # a singleton cannot split
            keyed = _keyed(g, cells[k], cells[s])
            keys = sorted(keyed)
            trace.append((s, k, tuple((key, keyed[key].bit_count()) for key in keys)))
            if len(keys) > 1:
                pieces = [k, *range(len(cells), len(cells) + len(keys) - 1)]
                cells[k] = keyed[keys[0]]
                cells += [keyed[key] for key in keys[1:]]
                queue += [i for i in pieces if i not in queue]
    return cells, trace


def _replay(h: Digraph, cells: list[int], trace) -> list[int] | None:
    """h's partition, paired cell by cell with g's, split in place as g's trace
    split g's, or None at the first key set or piece size that differs."""
    for s, k, sized in trace:
        keyed = _keyed(h, cells[k], cells[s])
        if len(keyed) != len(sized) or any(keyed.get(key, 0).bit_count() != size
                                           for key, size in sized):
            return None
        cells[k] = keyed[sized[0][0]]
        cells += [keyed[key] for key, _ in sized[1:]]
    return cells


def _split_off(cells: list[int], k: int, v: int) -> list[int]:
    """cells with v moved from cell k to a new last cell; as is if cell k is {v}."""
    if cells[k] == 1 << v:
        return cells
    cells = cells + [1 << v]
    cells[k] ^= 1 << v
    return cells


def _chain(g: Digraph):
    """depth(u) -> (cells, k, trace): g's partition with 0..u-1 individualized
    and refined, the index of u's cell, and the trace from depth u-1 with u-1
    split off (from one cell at depth 0), computed when first asked for."""
    depths = []

    def add(cells: list[int], trace) -> None:
        u = len(depths)
        depths.append((cells, next(k for k, cell in enumerate(cells) if cell >> u & 1), trace))

    def depth(u: int):
        while len(depths) <= u:
            cells, k, _ = depths[-1]
            split = _split_off(cells, k, len(depths) - 1)
            add(*(cells, ()) if split is cells else _refine(g, split, [len(cells)]))
        return depths[u]
    add(*_refine(g, [(1 << g.n) - 1], [0]))
    return depth


def _children(h: Digraph, cells: list[int], k: int, images, trace):
    """h's partitions with each image in turn split off cell k, g's trace replayed, or None."""
    return (_replay(h, _split_off(cells, k, w), trace) for w in images)


def _search(g: Digraph, h: Digraph, depth, u: int, roots, budget):
    """Root by root, the least isomorphism g -> h, if any, that maps g's
    partition depth(u) onto the root, h's, cell by cell: depth first on a stack
    of `_children`, one node of budget per partition.  A discrete one is a map
    (masks 1 << v sort by v), kept iff `relabel` takes g's adjacency to h's.
    A frame reads its cell when pushed and finds its images one at a time."""
    stack = [iter(roots)]
    while stack:
        for cells in stack[-1]:
            if next(budget, None) is None:
                raise SizeLimitError(f"isomorphism search stopped after {MAX_SEARCH_NODES} nodes")
            if cells is None:
                continue
            v = u + len(stack) - 1
            cells_g, k, _ = depth(v)
            if len(cells) < g.n:
                stack.append(_children(h, cells, k, _ascending_bits(cells[k]), depth(v + 1)[2]))
                break
            mapping = tuple(cell.bit_length() - 1 for _, cell in sorted(zip(cells_g, cells)))
            if relabel(g, mapping).adj == h.adj:
                yield mapping
                del stack[1:]
                break
        else:
            stack.pop()


def _maps_arcs(g: Digraph, h: Digraph, p: Permutation) -> bool:
    """True iff p permutes g's vertices, g and h have as many arcs, and each
    arc u -> w of g has its image p[u] -> p[w] in h: p maps g's arcs onto h's."""
    return (sorted(p) == list(range(g.n))
            and sum(map(int.bit_count, g.adj)) == sum(map(int.bit_count, h.adj))
            and all(h.adj[p[u]] >> p[w] & 1
                    for u in range(g.n) for w in _ascending_bits(g.adj[u])))


def is_automorphism(g: Digraph, p: Permutation) -> bool:
    return _maps_arcs(g, g, p)


def isomorphic(g: Digraph, h: Digraph) -> Permutation | None:
    """A digraph isomorphism g -> h if one exists, else None; every witness
    is re-verified row by row, with the arc counts, before it is returned."""
    if g.n != h.n:
        return None
    depth = _chain(g)
    root = _replay(h, [(1 << h.n) - 1], depth(0)[2])
    p = next(_search(g, h, depth, 0, [root], iter(range(MAX_SEARCH_NODES))), None)
    if p is not None and not _maps_arcs(g, h, p):
        raise InconsistencyError("isomorphism witness failed arc-by-arc verification")
    return p


def _walk(generators: list[Permutation], found: dict, key,
          semiregular: bool = False, closed: int = 0) -> dict | None:
    """Grow found by the first product of generators reached breadth first
    for each new value of key: from the identity, the whole group keyed by
    the element or a transversal of u's orbit keyed by u's image.  The first
    `closed` values take only the last generator; the others keep them in
    found.  A walk that ends is closed, so it holds the whole group or orbit.
    Semiregular (keyed by the image of 0), it returns None at a product other
    than the identity that fixes a point or takes 0 where another one does."""
    queue = list(found.values())
    ident = queue[0]
    for i, x in enumerate(queue):
        after_x = _after(x)
        for s in generators if i >= closed else generators[-1:]:
            y = after_x(s)
            held = found.get(k := key(y))
            if held is None:
                if semiregular and any(map(eq, y, ident)):
                    return None
                found[k] = y
                queue.append(y)
            elif semiregular and held != y:
                return None
    return found


def automorphisms(g: Digraph, cap: int = DEFAULT_AUT_CAP) -> PermGroup:
    """All arc-preserving permutations of g, as a stabilizer chain.

    Level u keeps a transversal of G_u, the automorphisms fixing 0..u-1, over
    G_(u+1): one element taking u to each vertex of u's orbit.  Levels from the
    first discrete partition on are trivial; below it, level u's search roots
    are u's cell with u -> w for each w outside the orbit reached so far.
    MAX_AUT_ELEMENTS bounds |G_u|, the level sizes' product from u up.
    """
    if g.n > cap:
        raise SizeLimitError(
            f"automorphism enumeration capped at {cap} vertices, graph has {g.n}")
    n = g.n
    budget = iter(range(MAX_SEARCH_NODES))
    depth = _chain(g)
    ident = identity_perm(n)
    levels = [{u: ident} for u in range(n)]
    generators: list[Permutation] = []
    order = 1
    for u in reversed(range(next(d for d in range(n) if len(depth(d)[0]) == n))):
        reps = _walk(generators, {u: ident}, itemgetter(u))
        cells, k, _ = depth(u)
        images = (w for w in _ascending_bits(cells[k]) if w not in reps)  # reps as it grows
        for found in _search(g, g, depth, u + 1, _children(g, cells, k, images, depth(u + 1)[2]),
                             budget):
            generators.append(found)
            reps = _walk(generators, {u: ident}, itemgetter(u))
        order *= len(reps)
        if order > MAX_AUT_ELEMENTS:
            raise SizeLimitError(
                f"more than {MAX_AUT_ELEMENTS} automorphisms, enumeration stopped")
        levels[u] = reps
    return PermGroup(n, tuple(levels))


def orbits(group: PermGroup, n: int) -> list[list[int]]:
    """Orbit partition of {0..n-1}, blocks sorted by their minimum."""
    if group.degree != n:
        raise ValueError(f"group degree {group.degree} does not match n={n}")
    blocks: list[list[int]] = []
    for v in range(n):
        if not any(v in block for block in blocks):
            blocks.append(sorted(group.orbit(v)))
    return blocks


def burnside_orbit_count(group: PermGroup, n: int) -> int:
    """Number of orbits as the average fixed-point count over the group."""
    if group.degree != n:
        raise ValueError(f"group degree {group.degree} does not match n={n}")
    if not len(group):
        raise ValueError("empty element list is not a group")
    total = sum(fixed_points(p) for p in group)
    if total % len(group):
        raise InconsistencyError(
            f"fixed-point sum {total} is not divisible by {len(group)}; "
            "input is not a group")
    return total // len(group)


def find_regular_subgroup(aut: PermGroup, n: int) -> PermGroup | None:
    """A transitive subgroup of order n with trivial stabilizers, if any.

    Each step adds a fixed-point-free generator taking 0 to the smallest
    vertex the group does not reach yet, and `_walk` grows the group by it
    until a product fixes a point.  A regular group holds exactly one element
    taking 0 to that vertex, so branching on these alone misses none.  The
    orbits of a semiregular group all have its order, so it divides n.  The
    candidates taking 0 to v are walked from the coset levels[0][v]*G_1.
    """
    if aut.degree != n:
        raise ValueError(f"group degree {aut.degree} does not match n={n}")
    if len(aut.levels[0]) != n:
        return None  # a regular subgroup is transitive, so aut is too

    def extend(generators: list[Permutation], group: dict) -> dict[int, Permutation] | None:
        group = _walk(generators, dict(group), itemgetter(0), True, len(group))
        if group is None or len(group) == n:
            return group
        target = next(v for v in range(n) if v not in group)
        for p in _products(aut.levels, 1, aut.levels[0][target], moving=True):
            if (result := extend(generators + [p], group)) is not None:
                return result
        return None

    hit = extend([], {0: identity_perm(n)})
    if hit is None:
        return None
    sub = PermGroup.from_elements(n, hit.values())
    if len(sub.orbit(0)) != n:
        raise InconsistencyError("regular subgroup candidate is not transitive")
    return sub
