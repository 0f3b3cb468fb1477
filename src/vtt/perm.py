"""Permutations, digraph isomorphism search, automorphism groups, orbits, and
Cayley recognition.

Groups grow by walking products of generators breadth first from the
identity, |G|*|gens| compositions for a group G: `_walk` keeps one product
per key value, `_semiregular_walk` one per image of 0 until a product shows
the group is not semiregular.  One search finds the least isomorphism
g -> h that respects a paired vertex partition.  Colour refinement (McKay &
Piperno 2014) splits paired cells by out- and in-neighbour counts in each
other cell until the partition is equitable; the search places vertices in
ascending order, individualizes each with its images in turn, ascending,
and refines again.  `isomorphic` runs it from one cell.  `automorphisms`
builds a stabilizer chain along the base 0..n-1 (Sims 1970) with one such
search per candidate coset representative and `_walk` transversals.  A
`PermGroup` is that chain: its order is the product of the basic orbit
lengths, and `_products` walks its elements lazily.  Results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import InconsistencyError, SizeLimitError
from .graphs import Digraph, _bits_to_list

Permutation = tuple[int, ...]

DEFAULT_AUT_CAP = 16
# Largest automorphism group order admitted (C5[C3] has 77,760): the regular-
# subgroup search walks cosets of G_1, of 15! elements for the empty 16-vertex graph.
MAX_AUT_ELEMENTS = 100_000


def identity_perm(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


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
    return sum(1 for i, x in enumerate(p) if i == x)


def perm_str(p: Permutation) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


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
        return cls.from_elements(degree, _walk(degree, gens, lambda p: p).values())

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

    def walk(i: int, x: Permutation):
        # the points from the previous step's level up to this one's are final in x
        final = range(steps[i - 1] if i else u, steps[i] if i < len(steps) else len(levels))
        if moving and any(x[w] == w for w in final):
            return
        if i == len(steps):
            yield x
            return
        v = steps[i]
        for t in sorted(levels[v].values(), key=lambda t: x[t[v]]):
            yield from walk(i + 1, compose(x, t))

    return walk(0, x)


def _refine(g: Digraph, h: Digraph, cells_g: list[int], cells_h: list[int],
            splitters: list[int]) -> tuple[list[int], list[int]] | None:
    """Refine paired partitions in place until equitable, or None once the
    sides differ.  Cells are bitmasks, cell k of g paired with cell k of h.
    A splitter splits each non-singleton cell by the key (out-, in-neighbours
    in it); by sorted key, the first piece keeps the index and the rest are
    appended and queued, so the pairing never depends on vertex labels."""
    radix = g.n + 1
    queue = list(splitters)
    while queue and len(cells_g) < g.n:
        s = queue.pop()
        keyed_g, keyed_h = {}, {}
        for k in range(len(cells_g)):
            if not cells_g[k] & (cells_g[k] - 1):
                continue  # a singleton cannot split; the map is checked once discrete
            for d, split, cell, keyed in ((g, cells_g[s], cells_g[k], keyed_g),
                                          (h, cells_h[s], cells_h[k], keyed_h)):
                keyed.clear()
                for v in _bits_to_list(cell):
                    key = (d.adj[v] & split).bit_count() * radix + (d.preds[v] & split).bit_count()
                    keyed[key] = keyed.get(key, 0) | 1 << v
            if keyed_g.keys() != keyed_h.keys():
                return None
            if len(keyed_g) == 1:
                continue
            keys = sorted(keyed_g)
            if any(keyed_g[key].bit_count() != keyed_h[key].bit_count() for key in keys):
                return None
            pieces = [k, *range(len(cells_g), len(cells_g) + len(keys) - 1)]
            cells_g[k], cells_h[k] = keyed_g[keys[0]], keyed_h[keys[0]]
            cells_g += [keyed_g[key] for key in keys[1:]]
            cells_h += [keyed_h[key] for key in keys[1:]]
            queue += [i for i in pieces if i not in queue]
    if len(cells_g) == g.n:  # discrete: a map, equitable iff it keeps every arc
        mapping = _cell_map(cells_g, cells_h)
        if any(sum(1 << mapping[x] for x in _bits_to_list(g.adj[v])) != h.adj[w]
               for v, w in enumerate(mapping)):
            return None
    return cells_g, cells_h


def _cell_map(cells_g: list[int], cells_h: list[int]) -> list[int]:
    """The map that a discrete paired partition defines (masks 1 << v sort by v)."""
    return [cell_h.bit_length() - 1 for _, cell_h in sorted(zip(cells_g, cells_h))]


def _cell_of(cells: list[int], u: int) -> int:
    return next(k for k, cell in enumerate(cells) if cell >> u & 1)


def _individualize(g: Digraph, h: Digraph, cells: tuple[list[int], list[int]],
                   u: int, w: int) -> tuple[list[int], list[int]] | None:
    """The paired partition with u, and w on the h side, in a new paired
    singleton cell, refined; w must lie in the cell paired with u's."""
    cells_g, cells_h = cells
    k = _cell_of(cells_g, u)
    if cells_g[k] == 1 << u:
        return cells  # a singleton pair is already individualized
    cells_g, cells_h = cells_g + [1 << u], cells_h + [1 << w]
    cells_g[k] ^= 1 << u
    cells_h[k] ^= 1 << w
    return _refine(g, h, cells_g, cells_h, [len(cells_g) - 1])


def _extend(g: Digraph, h: Digraph, cells: tuple[list[int], list[int]] | None,
            u: int) -> Permutation | None:
    """The least isomorphism g -> h that respects the paired partition, or
    None: it places u, u+1, ... (those below u are singletons already) and
    tries each one's paired cell in ascending order.  Refinement only drops
    images that no isomorphism uses, so the least map is still found."""
    if cells is None:
        return None
    cells_g, cells_h = cells
    if len(cells_g) == g.n:
        return tuple(_cell_map(cells_g, cells_h))
    for w in _bits_to_list(cells_h[_cell_of(cells_g, u)]):
        if (found := _extend(g, h, _individualize(g, h, cells, u, w), u + 1)) is not None:
            return found
    return None


def is_automorphism(g: Digraph, p: Permutation) -> bool:
    if sorted(p) != list(range(g.n)):
        return False
    return all(g.has_arc(p[u], p[v]) for u, v in g.arcs())


def isomorphic(g: Digraph, h: Digraph) -> Permutation | None:
    """A digraph isomorphism g -> h if one exists, else None.

    Every returned witness is re-verified arc by arc before being handed out.
    """
    if g.n != h.n:
        return None
    p = _extend(g, h, _refine(g, h, [(1 << g.n) - 1], [(1 << h.n) - 1], [0]), 0)
    if p is None:
        return None
    mapped = {(p[u], p[v]) for u, v in g.arcs()}
    if mapped != set(h.arcs()):
        raise InconsistencyError("isomorphism witness failed arc-by-arc verification")
    return p


def _walk(n: int, generators: list[Permutation], key) -> dict:
    """The first product of generators found, breadth first from the
    identity, for each value of key: the whole group keyed by the element, a
    transversal of u's orbit keyed by the image of u."""
    ident = identity_perm(n)
    found = {key(ident): ident}
    queue = [ident]
    for x in queue:
        for s in generators:
            y = compose(s, x)
            if (k := key(y)) not in found:
                found[k] = y
                queue.append(y)
    return found


def _semiregular_walk(n: int, generators: list[Permutation]) -> dict[int, Permutation] | None:
    """The generated group keyed by the image of 0, or None once it is not
    semiregular: a product other than the identity fixes a point, or two
    take 0 to the same vertex (the stabilizer of 0 is nontrivial).  A walk
    that ends is closed under the generators, so it holds the whole group."""
    ident = identity_perm(n)
    by_image = {0: ident}
    queue = [ident]
    for x in queue:
        for s in generators:
            y = compose(s, x)
            held = by_image.get(y[0])
            if held is None:
                if fixed_points(y):
                    return None
                by_image[y[0]] = y
                queue.append(y)
            elif held != y:
                return None
    return by_image


def automorphisms(g: Digraph, cap: int = DEFAULT_AUT_CAP) -> PermGroup:
    """All arc-preserving permutations of g, as a stabilizer chain.

    The chain is built along the base 0..n-1, from u = n-1 down to 0.  Level
    u keeps a transversal of G_u, the automorphisms fixing 0..u-1, over
    G_(u+1): one element of G_u taking u to each vertex of u's orbit.  Each
    candidate w, in u's cell once 0..u-1 are individualized and outside the
    orbit reached so far, costs one search with 0..u-1 fixed and u -> w; a
    hit is a new generator.  |G_u| is the product of the transversal lengths
    from u up, so MAX_AUT_ELEMENTS is checked against it at every level.
    """
    if g.n > cap:
        raise SizeLimitError(
            f"automorphism enumeration capped at {cap} vertices, graph has {g.n}")
    n = g.n
    # partitions[u]: the refined partition with 0..u-1 individualized
    partitions = [_refine(g, g, [(1 << n) - 1], [(1 << n) - 1], [0])]
    for u in range(n - 1):
        partitions.append(_individualize(g, g, partitions[-1], u, u))
    generators: list[Permutation] = []
    levels = []
    order = 1
    for u in reversed(range(n)):
        reps = _walk(n, generators, itemgetter(u))
        cells = partitions[u]
        for w in _bits_to_list(cells[1][_cell_of(cells[0], u)]):
            if w > u and w not in reps:
                found = _extend(g, g, _individualize(g, g, cells, u, w), u + 1)
                if found is not None:
                    generators.append(found)
                    reps = _walk(n, generators, itemgetter(u))
        order *= len(reps)
        if order > MAX_AUT_ELEMENTS:
            raise SizeLimitError(
                f"more than {MAX_AUT_ELEMENTS} automorphisms, enumeration stopped")
        levels.append(reps)
    return PermGroup(n, tuple(reversed(levels)))


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
    vertex the group does not reach yet, and `_semiregular_walk` drops it at
    the first product that fixes a point.  A regular group holds exactly one
    element taking 0 to that vertex, so branching on these alone misses none.
    The orbits of a semiregular group all have its order, so it divides n.
    The candidates taking 0 to v are walked from the coset levels[0][v]*G_1.
    """
    if aut.degree != n:
        raise ValueError(f"group degree {aut.degree} does not match n={n}")
    if len(aut.levels[0]) != n:
        return None  # a regular subgroup is transitive, so aut is too

    def extend(generators: list[Permutation]) -> dict[int, Permutation] | None:
        group = _semiregular_walk(n, generators)
        if group is None or len(group) == n:
            return group
        target = next(v for v in range(n) if v not in group)
        for p in _products(aut.levels, 1, aut.levels[0][target], moving=True):
            if (result := extend(generators + [p])) is not None:
                return result
        return None

    hit = extend([])
    if hit is None:
        return None
    sub = PermGroup.from_elements(n, hit.values())
    if len(sub.orbit(0)) != n:
        raise InconsistencyError("regular subgroup candidate is not transitive")
    return sub
