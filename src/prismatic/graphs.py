"""Dense simple graphs with per-vertex adjacency bitsets.

Vertices are always 0..n-1.  The adjacency row of vertex v is a Python int
used as a bitset: bit u is set iff u ~ v.

Validation happens where adjacency comes from outside: ``Graph(n, adj)``
checks that every row is in range, loop-free and symmetric.  The other
constructors make rows that are symmetric and loop-free by construction,
and wrap them with ``Graph._trusted``, which skips that quadratic check:

* ``build_graph`` rejects loops and out-of-range endpoints, then sets both
  bits of each edge;
* ``graphio.parse_graph6`` mirrors the upper triangle it decodes;
* ``empty_graph`` and ``complete_graph`` are fixed patterns;
* ``complement``, ``induced``, ``relabel`` (once it has checked that it got a
  permutation), ``complementary_prism`` and ``lexicographic_product`` keep
  both properties of graphs that already have them;
* the Paley, Kneser and Cayley rows in ``families``, and the 505-vertex
  example's rows, are built symmetric from their definitions (translates of
  a symmetric set, disjointness, and blocks with their cross edges listed
  from both ends).

So any Graph in circulation is a legal simple graph.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency has %d rows for %d vertices" % (len(adj), n))
        for v, row in enumerate(adj):
            if row >> n:
                raise ValueError("row %d references vertices >= %d" % (v, n))
            if (row >> v) & 1:
                raise ValueError("self-loop at vertex %d" % v)
        for v in range(n):
            for u in bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise ValueError("asymmetric adjacency at (%d, %d)" % (v, u))
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _trusted(cls, n: int, adj: Sequence[int]) -> "Graph":
        """Wrap rows that are symmetric and loop-free by construction, unchecked."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        return g

    # -- basic queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                yield (v, u + v + 1)

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return "<graph n=%d m=%d>" % (self.n, self.edge_count())

    # -- derived graphs -----------------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        adj = [full & ~row & ~(1 << v) for v, row in enumerate(self.adj)]
        return Graph._trusted(self.n, adj)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is sorted(vertices)[i]."""
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise ValueError("induced vertices must lie in range(%d)" % self.n)
        index = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            for u in bits(self.adj[v]):
                if u in index:
                    adj[i] |= 1 << index[u]
        return Graph._trusted(len(keep), adj)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image graph under the bijection v -> perm[v]."""
        if len(perm) != self.n or set(perm) != set(range(self.n)):
            raise ValueError("relabelling is not a permutation of range(%d)" % self.n)
        adj = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << perm[u]
            adj[perm[v]] = row
        return Graph._trusted(self.n, adj)

    # -- traversal ----------------------------------------------------------

    def component_mask(self, start: int, within: int) -> int:
        """Bitmask of the vertices reachable from ``start`` through the
        vertices in the bitmask ``within``, ``start`` included."""
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & within & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        full = (1 << self.n) - 1
        return self.component_mask(0, full) == full

    def diameter(self) -> int:
        """Longest shortest path, the most breadth-first layers any vertex
        needs to see the whole graph; raises on disconnected input."""
        if self.n == 0:
            raise ValueError("diameter of the null graph is undefined")
        if not self.is_connected():
            raise ValueError("graph is disconnected")
        full = (1 << self.n) - 1
        best = 0
        for start in range(self.n):
            seen = frontier = 1 << start
            layers = 0
            while seen != full:
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~seen
                seen |= frontier
                layers += 1
            best = max(best, layers)
        return best


# -- constructors ------------------------------------------------------------


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph from an edge list; rejects loops and out-of-range endpoints."""
    adj = [0] * n
    for pair in edges:
        u, v = pair
        if u == v:
            raise ValueError("self-loop %r rejected" % (pair,))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge %r out of range for n=%d" % (pair, n))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._trusted(n, adj)


def empty_graph(n: int) -> Graph:
    return Graph._trusted(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._trusted(n, [full & ~(1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: hub 0 joined to 1..n-1."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return build_graph(n, [(0, i) for i in range(1, n)])


def complementary_prism(g: Graph) -> Graph:
    """Disjoint union of g and its complement plus the perfect matching.

    Vertex (v,1) keeps index v; vertex (v,2) gets index n+v.  The matching
    edges {v, n+v} are the only edges between the two sides.
    """
    n = g.n
    if n < 1:
        raise ValueError("prism of the null graph is undefined")
    comp = g.complement()
    adj = [0] * (2 * n)
    for v in range(n):
        adj[v] = g.adj[v] | (1 << (n + v))
        adj[n + v] = (comp.adj[v] << n) | (1 << v)
    return Graph._trusted(2 * n, adj)


def prism_index(v: int, side: int, n: int) -> int:
    """Index of prism vertex (v, side) for a base graph on n vertices."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    return v if side == 1 else n + v


def lexicographic_product(g1: Graph, g2: Graph) -> Graph:
    """g1[g2]: (a,b) ~ (c,d) iff a~c, or a=c and b~d.  Index (a,b) = a*|V2|+b."""
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    adj = [0] * n
    block = (1 << n2) - 1
    for a in range(n1):
        row_blocks = 0
        for c in bits(g1.adj[a]):
            row_blocks |= block << (c * n2)
        for b in range(n2):
            adj[a * n2 + b] = row_blocks | (g2.adj[b] << (a * n2))
    return Graph._trusted(n, adj)
