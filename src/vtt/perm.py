"""Permutations, digraph isomorphism search, automorphism groups, orbits, and
Cayley recognition.

One backtracking engine finds the first isomorphism that extends a fixed
prefix of vertex images.  It places vertices in ascending order, tries
candidates in ascending order, and prunes with two invariants per vertex: the
(out-degree, in-degree) pair and the number of directed 3-cycles through the
vertex.  `isomorphic` runs it with an empty prefix.  `automorphisms` builds a
stabilizer chain along the base 0..n-1 (Sims 1970) with one such search per
candidate coset representative, so the group order is known, as the product
of the basic orbit lengths, before any element is built.  Results are
deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .errors import InconsistencyError, SizeLimitError
from .graphs import Digraph

Permutation = tuple[int, ...]

DEFAULT_AUT_CAP = 16
# Largest automorphism group whose elements are built; C5[C3] has 77,760.
MAX_AUT_ELEMENTS = 100_000


def identity_perm(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse_perm(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


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
    """A permutation group materialized as an explicit element list.

    `automorphisms`, `from_generators` and `stabilizer` list the elements in
    ascending order, which `find_regular_subgroup` relies on."""

    degree: int
    elements: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @classmethod
    def from_generators(cls, degree: int, generators) -> "PermGroup":
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"{g} is not a permutation of degree {degree}")
        closure = _close({identity_perm(degree), *gens})
        return cls(degree, tuple(sorted(closure)))

    def orbit(self, v: int) -> set[int]:
        return {p[v] for p in self.elements}

    def stabilizer(self, v: int) -> "PermGroup":
        return PermGroup(self.degree, tuple(p for p in self.elements if p[v] == v))


def _close(perms: set[Permutation], limit: int | None = None,
           allowed: Callable[[Permutation], bool] | None = None) -> set[Permutation] | None:
    """Closure under composition; None once `limit` is exceeded or an element
    fails `allowed`."""
    closure = set(perms)
    frontier = list(perms)
    while frontier:
        x = frontier.pop()
        for y in tuple(closure):
            for z in (compose(x, y), compose(y, x)):
                if z not in closure:
                    if allowed is not None and not allowed(z):
                        return None
                    closure.add(z)
                    if limit is not None and len(closure) > limit:
                        return None
                    frontier.append(z)
    return closure


def _vertex_invariants(g: Digraph) -> list[tuple[int, int, int]]:
    inv = []
    for v in range(g.n):
        tri = 0
        for w in g.out_neighbors(v):
            tri += (g.adj[w] & g.preds[v]).bit_count()
        inv.append((g.out_degree(v), g.in_degree(v), tri))
    return inv


def _candidates(g: Digraph, h: Digraph) -> list[list[int]] | None:
    """For each vertex of g, the vertices of h with equal invariants, ascending;
    None when the invariants already rule out an isomorphism."""
    if g.n != h.n or g.num_arcs != h.num_arcs:
        return None
    inv_g = _vertex_invariants(g)
    inv_h = inv_g if h is g else _vertex_invariants(h)
    if sorted(inv_g) != sorted(inv_h):
        return None
    return [[w for w in range(h.n) if inv_h[w] == inv_g[u]] for u in range(g.n)]


def _first_extension(g: Digraph, h: Digraph, candidates: list[list[int]],
                     prefix: list[int]) -> Permutation | None:
    """The first isomorphism g -> h taking each vertex u < len(prefix) to
    prefix[u], in ascending candidate order; None if there is none."""
    n = g.n
    choices = [[w] if w in candidates[u] else [] for u, w in enumerate(prefix)]
    choices += candidates[len(prefix):]
    gadj, hadj = g.adj, h.adj
    mapping = [-1] * n
    used = [False] * n

    def place(u: int) -> bool:
        if u == n:
            return True
        for w in choices[u]:
            if used[w]:
                continue
            ok = True
            for v in range(u):
                mv = mapping[v]
                if (gadj[v] >> u & 1) != (hadj[mv] >> w & 1) or \
                   (gadj[u] >> v & 1) != (hadj[w] >> mv & 1):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used[w] = True
                if place(u + 1):
                    return True
                used[w] = False
        return False

    return tuple(mapping) if place(0) else None


def is_automorphism(g: Digraph, p: Permutation) -> bool:
    if sorted(p) != list(range(g.n)):
        return False
    return all(g.has_arc(p[u], p[v]) for u, v in g.arcs())


def isomorphic(g: Digraph, h: Digraph) -> Permutation | None:
    """A digraph isomorphism g -> h if one exists, else None.

    Every returned witness is re-verified arc by arc before being handed out.
    """
    candidates = _candidates(g, h)
    p = None if candidates is None else _first_extension(g, h, candidates, [])
    if p is None:
        return None
    mapped = {(p[u], p[v]) for u, v in g.arcs()}
    if mapped != set(h.arcs()):
        raise InconsistencyError("isomorphism witness failed arc-by-arc verification")
    return p


def _transversal(u: int, generators: list[Permutation], n: int) -> dict[int, Permutation]:
    """For each vertex w in the orbit of u under the generators, one product
    of generators taking u to w."""
    reps = {u: identity_perm(n)}
    queue = [u]
    for x in queue:
        for s in generators:
            y = s[x]
            if y not in reps:
                reps[y] = compose(s, reps[x])
                queue.append(y)
    return reps


def automorphisms(g: Digraph, cap: int = DEFAULT_AUT_CAP) -> PermGroup:
    """All arc-preserving permutations of g, in ascending order.

    The group is built as a stabilizer chain along the base 0..n-1, from
    u = n-1 down to 0.  Level u keeps a transversal of G_u, the automorphisms
    fixing 0..u-1, over G_(u+1): one element of G_u taking u to each vertex of
    u's orbit.  Each candidate w outside the orbit reached so far costs one
    first-found search with 0..u-1 fixed and u -> w; a hit is a new
    generator, and the orbit grows under all generators found.  |G_u| is the
    product of the transversal lengths from u up, so MAX_AUT_ELEMENTS is
    checked against it at every level, and the elements, the products of one
    transversal element per level, are built only after the whole order has
    passed.
    """
    if g.n > cap:
        raise SizeLimitError(
            f"automorphism enumeration capped at {cap} vertices, graph has {g.n}")
    n = g.n
    candidates = _candidates(g, g)
    generators: list[Permutation] = []
    transversals = []
    order = 1
    for u in reversed(range(n)):
        reps = _transversal(u, generators, n)
        for w in candidates[u]:
            if w > u and w not in reps:
                found = _first_extension(g, g, candidates, [*range(u), w])
                if found is not None:
                    generators.append(found)
                    reps = _transversal(u, generators, n)
        order *= len(reps)
        if order > MAX_AUT_ELEMENTS:
            raise SizeLimitError(
                f"more than {MAX_AUT_ELEMENTS} automorphisms, enumeration stopped")
        if len(reps) > 1:
            transversals.append(reps.values())
    elements = [identity_perm(n)]
    for reps in transversals:
        # itemgetter(*h)(t) == compose(t, h), without a Python-level loop
        right_factors = [itemgetter(*h) for h in elements]
        elements = [times_h(t) for t in reps for times_h in right_factors]
    elements.sort()
    return PermGroup(n, tuple(elements))


def orbits(group: PermGroup, n: int) -> list[list[int]]:
    """Orbit partition of {0..n-1}, blocks sorted by their minimum."""
    if group.degree != n:
        raise ValueError(f"group degree {group.degree} does not match n={n}")
    seen = [False] * n
    blocks = []
    for v in range(n):
        if seen[v]:
            continue
        block = sorted({p[v] for p in group.elements})
        for w in block:
            seen[w] = True
        blocks.append(block)
    return blocks


def burnside_orbit_count(group: PermGroup, n: int) -> int:
    """Number of orbits as the average fixed-point count over the group."""
    if group.degree != n:
        raise ValueError(f"group degree {group.degree} does not match n={n}")
    if not group.elements:
        raise ValueError("empty element list is not a group")
    total = sum(fixed_points(p) for p in group.elements)
    if total % len(group.elements):
        raise InconsistencyError(
            f"fixed-point sum {total} is not divisible by {len(group.elements)}; "
            "input is not a group")
    return total // len(group.elements)


def find_regular_subgroup(aut: PermGroup, n: int) -> PermGroup | None:
    """A transitive subgroup of order n with trivial stabilizers, if any.

    In a regular group every non-identity element is fixed-point-free, which
    prunes the candidates hard.  An element whose order does not divide n
    needs no test of its own: its closure's size is a multiple of that order
    (Lagrange), so the size check rejects it.  Each step extends the
    current closure by an element taking 0 to the smallest vertex it does not
    reach yet; a regular group holds exactly one such element, so branching
    on these alone misses none.  Since aut's elements ascend, those taking 0
    to v form one slice, filtered only when the search reaches v.
    """
    ident = identity_perm(n)
    elements = aut.elements

    def allowed(p: Permutation) -> bool:
        return p == ident or fixed_points(p) == 0

    taking_0_to: dict[int, list[Permutation]] = {}

    def extend(current: set[Permutation]) -> set[Permutation] | None:
        if len(current) == n:
            return current
        reached = {p[0] for p in current}
        target = next(v for v in range(n) if v not in reached)
        if target not in taking_0_to:
            lo, hi = bisect_left(elements, (target,)), bisect_left(elements, (target + 1,))
            taking_0_to[target] = [p for p in elements[lo:hi] if allowed(p)]
        for p in taking_0_to[target]:
            closed = _close(current | {p}, limit=n, allowed=allowed)
            if closed is None or n % len(closed):
                continue
            result = extend(closed)
            if result is not None:
                return result
        return None

    hit = extend({ident})
    if hit is None:
        return None
    sub = PermGroup(n, tuple(sorted(hit)))
    if len(sub.orbit(0)) != n:
        raise InconsistencyError("regular subgroup candidate is not transitive")
    return sub


def is_cayley(g: Digraph, cap: int = DEFAULT_AUT_CAP) -> PermGroup | None:
    """A regular subgroup of Aut(g) when g is a Cayley digraph, else None."""
    return find_regular_subgroup(automorphisms(g, cap), g.n)
