"""Digraphs with bitset adjacency, plus every graph constructor used here.

Vertices are 0..n-1 and `adj[v]` is an integer whose bit w is set exactly when
the arc v -> w exists.  Undirected graphs are stored as symmetric digraphs.
Whole-graph transforms write each row as an n-character bit string, bit w at
index n-1-w, and run in C: `preds` is one transpose of the rows and `relabel`
one `itemgetter` over each row.  `_ascending_bits` lists the set bits of a
row where a loop needs them one at a time.
Constructors: Cayley digraphs on finite abelian groups, hypercubes, cycles,
Kneser graphs (Petersen as J(5,2,0)), and wreath products.
Tournament-specific machinery: connection-set validity and the per-arc
directed-triangle profile used as an isomorphism invariant.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .errors import SizeLimitError
from .groups import AbelianGroup, cyclic


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph; adj[v] bit w set iff arc v -> w.  No loops allowed."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("digraph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, bits in enumerate(self.adj):
            if bits >> self.n:
                raise ValueError(f"adjacency bits of vertex {v} out of range")
            if bits >> v & 1:
                raise ValueError(f"loop at vertex {v}")

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Digraph":
        adj = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
        return cls(n, tuple(adj))

    @cached_property
    def preds(self) -> tuple[int, ...]:
        """Per-vertex predecessor bitsets (bit u of preds[v] iff u -> v): the
        rows from n-1 down to 0, transposed, give the columns from n-1 down."""
        rows = [format(bits, f"0{self.n}b") for bits in reversed(self.adj)]
        return tuple(int("".join(column), 2) for column in zip(*rows))[::-1]

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs sorted lexicographically."""
        return [(u, w) for u in range(self.n) for w in _ascending_bits(self.adj[u])]


def _ascending_bits(bits: int):
    """The set bits of bits, lowest first, found one at a time."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def cayley_digraph(group: AbelianGroup, s) -> Digraph:
    """Digraph on the group's elements with an arc g -> h iff h - g is in s.

    The identity's row is one mask, and every other row is a translate of it.
    Adding 1 to coordinate j turns each aligned block of m_j * w_j bits by
    w_j bits, w_j the product of the later moduli, so the rows come in rank
    order, coordinate by coordinate, from one rotation each.
    """
    members = frozenset(group.coerce(x) for x in s)
    if group.identity in members:
        raise ValueError("invalid connection set: contains the identity")
    n = group.order
    rows = [sum(1 << group.index(x) for x in members)]
    w = n
    for m in group.moduli:
        w //= m
        block = m * w
        # the top w bits of every block, which wrap to its bottom
        wrap = ((1 << w) - 1 << block - w) * ((1 << n) - 1) // ((1 << block) - 1)
        keep = (1 << n) - 1 ^ wrap
        turned = []
        for row in rows:
            turned.append(row)
            for _ in range(m - 1):
                row = (row & keep) << w | (row & wrap) >> block - w
                turned.append(row)
        rows = turned
    return Digraph(n, tuple(rows))


def validate_tournament_set(group: AbelianGroup, s) -> bool:
    """True iff s and -s partition the non-identity elements.

    Such a set orients every pair of group elements exactly once, so the
    resulting Cayley digraph is a tournament.  Always false on groups of even
    order, where some element equals its own negative.
    """
    members = frozenset(group.coerce(x) for x in s)
    if group.identity in members:
        return False
    neg = frozenset(group.neg(x) for x in members)
    if members & neg:
        return False
    nonidentity = frozenset(group.elements()) - {group.identity}
    return members | neg == nonidentity


def is_tournament(g: Digraph) -> bool:
    """True iff exactly one arc joins every unordered vertex pair: each
    vertex's successors and predecessors split the other vertices."""
    full = (1 << g.n) - 1
    return all(not out & into and out | into == full ^ 1 << u
               for u, (out, into) in enumerate(zip(g.adj, g.preds)))


def k_cube(k: int) -> Digraph:
    """The k-dimensional hypercube as a symmetric digraph."""
    if k < 1:
        raise ValueError(f"k_cube requires k >= 1, got {k}")
    group = AbelianGroup((2,) * k)
    basis = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    return cayley_digraph(group, basis)


def cycle(n: int) -> Digraph:
    """The undirected n-cycle, i.e. the circulant with steps {1, -1}."""
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    return cayley_digraph(cyclic(n), {1, n - 1})


def kneser(v: int, k: int, i: int) -> Digraph:
    """Graph on k-subsets of a v-set, adjacent when the intersection has size i.

    kneser(5, 2, 0) is the Petersen graph.
    """
    if not v >= k >= i >= 0:
        raise ValueError(f"kneser requires v >= k >= i >= 0, got ({v}, {k}, {i})")
    verts = list(combinations(range(v), k))
    index = {m: j for j, m in enumerate(verts)}
    arcs = []
    for a, b in combinations(verts, 2):
        if len(set(a) & set(b)) == i:
            arcs.append((index[a], index[b]))
            arcs.append((index[b], index[a]))
    return Digraph.from_arcs(len(verts), arcs)


def petersen() -> Digraph:
    return kneser(5, 2, 0)


def wreath_product(g: Digraph, h: Digraph) -> Digraph:
    """Wreath (lexicographic) product: (v, w) -> (v', w') iff v -> v', or v = v' and w -> w'."""
    n = g.n * h.n
    adj = [0] * n
    block = [0] * g.n
    for v in range(g.n):
        bits = 0
        for w in _ascending_bits(g.adj[v]):
            bits |= ((1 << h.n) - 1) << (w * h.n)
        block[v] = bits
    for v in range(g.n):
        for w in range(h.n):
            adj[v * h.n + w] = block[v] | (h.adj[w] << (v * h.n))
    return Digraph(n, tuple(adj))


@dataclass(frozen=True)
class TriangleProfile:
    """Directed 3-cycle counts through each arc of a tournament.

    arc_counts holds (u, v, c) for every arc u -> v, where c is the number of
    vertices w with v -> w -> u.  The sorted multiset of counts is invariant
    under digraph isomorphism, which makes it a cheap separating invariant.
    """

    arc_counts: tuple[tuple[int, int, int], ...]
    summary: tuple[int, ...]

    @property
    def max_count(self) -> int:
        return self.summary[-1] if self.summary else 0


def triangle_profile(g: Digraph) -> TriangleProfile:
    if not is_tournament(g):
        raise ValueError("triangle_profile requires a tournament")
    counts = []
    for u, v in g.arcs():
        counts.append((u, v, (g.adj[v] & g.preds[u]).bit_count()))
    return TriangleProfile(tuple(counts), tuple(sorted(c for _, _, c in counts)))


def relabel(g: Digraph, images) -> Digraph:
    """Apply a vertex permutation: arc u -> v becomes images[u] -> images[v].

    Row x is the row of inverse[x], the vertex that images takes to x, with
    its bit y read from bit inverse[y]: one `itemgetter` of the row string.
    """
    images = tuple(images)
    if sorted(images) != list(range(g.n)):
        raise ValueError("images is not a permutation of the vertices")
    inverse = sorted(range(g.n), key=images.__getitem__)
    pick = itemgetter(*[g.n - 1 - u for u in reversed(inverse)])
    return Digraph(g.n, tuple(int("".join(pick(format(g.adj[u], f"0{g.n}b"))), 2)
                              for u in inverse))


def _dot(arcs) -> str:
    return "digraph G {\n" + "".join(f"  {u} -> {v};\n" for u, v in arcs) + "}\n"


def to_dot(g: Digraph) -> str:
    return _dot(g.arcs())


def dot_from_text(text: str) -> str:
    """The DOT export of a graph file, as `to_dot(parse_graph_text(text))` has it.

    Each arc is checked as it is read and kept as a pair, so memory follows
    the file and not the vertex count in its header; nothing is returned
    unless every line checks.
    """
    _, arcs = _read_graph_text(text)
    return _dot(sorted(set(arcs)))


def parse_graph_text(text: str, max_vertices: int | None = None) -> Digraph:
    """Parse the header + edge-list format: first line "digraph n" or "graph n".

    A "graph" header applies symmetric closure to the listed edges.  A header
    naming more than `max_vertices` vertices raises SizeLimitError before the
    graph is built.
    """
    return Digraph.from_arcs(*_read_graph_text(text, max_vertices))


def _read_graph_text(text: str, max_vertices: int | None = None
                     ) -> tuple[int, Iterator[tuple[int, int]]]:
    """The header's vertex count, checked against max_vertices, and an iterator
    over the arcs, each checked to be in range and not a loop as it is read."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("digraph", "graph"):
        raise ValueError(f"bad header {lines[0]!r}: expected 'digraph n' or 'graph n'")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad vertex count in header {lines[0]!r}") from exc
    if n < 1:
        raise ValueError("digraph needs at least one vertex")
    if max_vertices is not None and n > max_vertices:
        raise SizeLimitError(f"vertex cap is {max_vertices}, graph has {n}")

    def arcs():
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"bad edge line {ln!r}") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            yield u, v
            if head[0] == "graph":
                yield v, u
    return n, arcs()
