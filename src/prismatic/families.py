"""Constructors for named graphs and the two one-parameter families.

Besides standard families (cycles, Paley graphs, Kneser graphs, ...) this
module builds two families of graphs that share a four-vertex "outer" path
y ~ v ~ u ~ z attached to an arbitrary inner graph on vertex set L.  A kind
is the pair of outer vertices joined to every inner vertex:

* ``pendant_pair_graph`` (kind ``"C5"``): the pair (y, z), so the outer path
  closes a pentagon through the inner part.  With a single inner vertex
  this is the pentagon C5.
* ``apex_pair_graph`` (kind ``"A"``): the pair (v, u), leaving y and z as
  pendants of degree one.

Both families use the layout: inner vertices at indices 0..L-1 (in the order
of the inner graph), then y, v, u, z at the last four indices.

The module also ships hand-checked fixture data: the four regular
self-complementary graphs on nine vertices, a 13-vertex self-complementary
graph whose complementary prism retracts onto K5, and a 505-vertex
construction whose complementary prism has a large, explicitly describable
retract.  For the latter two, the known antimorphisms/retractions are
exposed as plain image arrays so they can be verified mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_

from .fields import get_field
from .graphio import parse_graph6
from .graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    prism_index,
    star_graph,
)

# A kind is the pair of the outer path (y, v, u, z) joined to every inner
# vertex, by position: (y, z) for "C5" and (v, u) for "A".
JOINED_PAIR = {"C5": (0, 3), "A": (1, 2)}


def family_graph(kind: str, inner: Graph) -> Graph:
    """The member of family ``kind`` over ``inner``.

    Vertices 0..L-1 carry the inner graph; the path y, v, u, z sits at
    indices L, L+1, L+2, L+3, and its pair ``JOINED_PAIR[kind]`` is joined
    to every inner vertex.
    """
    if kind not in JOINED_PAIR:
        raise ValueError(f"unknown family kind {kind!r}")
    L = inner.n
    edges = list(inner.edges()) + [(L, L + 1), (L + 1, L + 2), (L + 2, L + 3)]
    edges += [(L + i, x) for i in JOINED_PAIR[kind] for x in range(L)]
    return build_graph(L + 4, edges)


def pendant_pair_graph(inner: Graph) -> Graph:
    return family_graph("C5", inner)


def apex_pair_graph(inner: Graph) -> Graph:
    return family_graph("A", inner)


# ---------------------------------------------------------------------------
# Paley, Kneser and Cayley constructions.
# ---------------------------------------------------------------------------


def paley_graph(q: int) -> Graph:
    """Paley graph on GF(q); requires q = 1 (mod 4) so the graph is undirected.

    Vertex a is the field element a, and its row is the translate a + S of
    the set S of nonzero squares, shifted as one bitmask.
    """
    field = get_field(q)
    if q % 4 != 1:
        raise ValueError(f"Paley graph needs q = 1 (mod 4), got {q}")
    squares = sum(1 << s for s in field.nonzero_squares())
    rows = [field.translate(squares, a) for a in range(q)]
    return Graph._trusted(q, rows)


def colex_subsets(n: int, r: int) -> list[frozenset[int]]:
    """All r-subsets of {1,...,n} in colexicographic order."""
    subs = [frozenset(c) for c in combinations(range(1, n + 1), r)]
    subs.sort(key=lambda s: sum(1 << x for x in s))
    return subs


def kneser_graph(n: int, r: int) -> Graph:
    """Kneser graph K(n, r): r-subsets of {1..n}, adjacent iff disjoint.

    Vertices follow colexicographic subset order.  The row of a subset is
    the intersection, over its elements x, of the bitmask of subsets that
    lack x.
    """
    if not 0 < 2 * r < n:
        raise ValueError(f"Kneser graph needs 0 < 2r < n, got n={n}, r={r}")
    subs = colex_subsets(n, r)
    lacking = [sum(1 << j for j, s in enumerate(subs) if x not in s) for x in range(n + 1)]
    rows = [reduce(and_, [lacking[x] for x in s]) for s in subs]
    return Graph._trusted(len(subs), rows)


def petersen_graph() -> Graph:
    """The Petersen graph, as the Kneser graph K(5, 2)."""
    return kneser_graph(5, 2)


# The Cayley graph on the additive group of GF(49) x GF(4) with connection
# set S = {(x, y) : x != 0, y in {0, 1}}.  Since GF(4) has characteristic 2,
# S is symmetric.  The graph is 96-regular with two connected components:
# GF(49) x {0, 1} and GF(49) x {i, 1+i} where i is a generator of GF(4).


def _cayley_rows(pairs) -> list[int]:
    """Adjacency bitsets of the Cayley graph on ``pairs``, indexed like ``pairs``.

    A pair is (x, y) with x in GF(49) and y in GF(4), both as field
    integers.  (x1, y1) ~ (x2, y2) iff x1 != x2 and y1 - y2 is 0 or 1, that
    is, y2 is y1 or y1 + 1; so each row is a union of two y-classes minus
    one x-class.
    """
    f4 = get_field(4)
    with_x = [0] * 49
    with_y = [0] * 4
    for i, (x, y) in enumerate(pairs):
        with_x[x] |= 1 << i
        with_y[y] |= 1 << i
    return [(with_y[y] | with_y[f4.add(y, 1)]) & ~with_x[x] for x, y in pairs]


def cay_f49xf4() -> Graph:
    """Standalone copy of the 196-vertex Cayley graph (two components)."""
    pairs = [(x, y) for y in range(4) for x in range(49)]
    return Graph._trusted(196, _cayley_rows(pairs))


# ---------------------------------------------------------------------------
# Fixture graphs, stored as graph6.
# ---------------------------------------------------------------------------

_FIGURE_F9 = ("H{dQXgj", "H{dX`TF", "H{db?{]", "H|ogqKV")


def figure_f9(index: int) -> Graph:
    """The four regular self-complementary graphs on nine vertices (1..4).

    The first one is isomorphic to the Paley graph of order nine.
    """
    if index not in (1, 2, 3, 4):
        raise ValueError("figure_f9 index must be 1, 2, 3 or 4")
    return parse_graph6(_FIGURE_F9[index - 1])


def exa1_graph() -> Graph:
    """A 13-vertex, 6-regular self-complementary graph.

    Vertices 0..4 induce a K5; the complementary prism of this graph
    retracts onto that K5 (see ``exa1_prism_retraction``).
    """
    return parse_graph6("L~}CBLeF_{?n?~")


def exa1_antimorphism() -> list[int]:
    """A fixed antimorphism of ``exa1_graph`` as a 0-indexed image array.

    Cycle structure (1-indexed): (1)(2 8 5 11)(3 9 4 10)(6 12 7 13);
    order four with the single fixed vertex 1.
    """
    one_indexed = [1, 8, 9, 10, 11, 12, 13, 5, 4, 3, 2, 7, 6]
    return [x - 1 for x in one_indexed]


def exa1_prism_retraction() -> list[int]:
    """Retraction of the complementary prism of ``exa1_graph`` onto its K5.

    Returns an image array over the 26 prism vertices.  The preimage
    classes (1-indexed, side 1 = the graph copy, side 2 = the complement
    copy) are:

        class of (1,1): (1,1) (8,1) (9,1) (10,1) (4,2) (5,2) (11,2)
        class of (2,1): (2,1) (6,1) (7,1) (1,2) (3,2)
        class of (3,1): (3,1) (11,1) (2,2) (8,2)
        class of (4,1): (4,1) (12,1) (7,2) (9,2) (13,2)
        class of (5,1): (5,1) (13,1) (6,2) (10,2) (12,2)
    """
    n = 13
    classes = {
        1: [(1, 1), (8, 1), (9, 1), (10, 1), (4, 2), (5, 2), (11, 2)],
        2: [(2, 1), (6, 1), (7, 1), (1, 2), (3, 2)],
        3: [(3, 1), (11, 1), (2, 2), (8, 2)],
        4: [(4, 1), (12, 1), (7, 2), (9, 2), (13, 2)],
        5: [(5, 1), (13, 1), (6, 2), (10, 2), (12, 2)],
    }
    image = [-1] * (2 * n)
    for target, members in classes.items():
        t = prism_index(target - 1, 1, n)
        for v, side in members:
            image[prism_index(v - 1, side, n)] = t
    if -1 in image:
        raise AssertionError("retraction table does not cover the prism")
    return image


# ---------------------------------------------------------------------------
# The 505-vertex example.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mysterious505:
    """The 505-vertex graph together with its vertex layout.

    * ``graph``: the graph itself (194-regular, connected, with connected
      complement, yet both the graph and the complement have an
      "inhomogeneous" structure mixing three very different blocks).
    * ``v``: indices of the 99 isolated-block vertices v1..v99.
    * ``kneser``: indices of the 210 four-subset vertices (colex order);
      these induce the complement of K(10,4) with the single edge
      {1,2,3,4} ~ {2,3,4,5} removed.
    * ``u1``, ``u2``: the endpoints of that removed edge.
    * ``w``: indices of the 196 Cayley-block vertices w1..w196.
    * ``w_pairs``: the GF(49) x GF(4) element pair (x, y) carried by each w
      vertex, as field integers: x in 0..48 and y in 0..3.
    """

    graph: Graph
    v: tuple[int, ...]
    kneser: tuple[int, ...]
    u1: int
    u2: int
    w: tuple[int, ...]
    w_pairs: tuple[tuple[int, int], ...]


def mysterious505() -> Mysterious505:
    """Build the 505-vertex example with its layout.

    Blocks, in index order:

    * 0..98: vertices v1..v99 inducing an empty graph;
    * 99..308: the 4-subsets of {1..10} in colex order, inducing the
      complement of the Kneser graph K(10,4) minus the edge
      e = {{1,2,3,4}, {2,3,4,5}};
    * 309..504: vertices w1..w196 inducing the Cayley graph on
      GF(49) x GF(4) with connection set {(x,y) : x != 0, y in {0,1}}.
      w195 = (0,1) and w196 = (0,i) = (0,2) are the last two indices; the
      rest are numbered component by component in field-integer order.

    Cross edges: w195 ~ u1 = {1,2,3,4} and w196 ~ u2 = {2,3,4,5};
    w195, w196 ~ vi for i <= 97; wj ~ v98, v99 for j <= 194; and
    vi ~ ws for i <= 97 and s in {1..194} - {i, i+97}.  The result is
    194-regular.
    """
    v_ids = tuple(range(99))
    kneser_ids = tuple(range(99, 309))
    w_ids = tuple(range(309, 505))
    subs = colex_subsets(10, 4)
    u1 = 99 + subs.index(frozenset({1, 2, 3, 4}))
    u2 = 99 + subs.index(frozenset({2, 3, 4, 5}))
    special = ((0, 1), (0, 2))  # w195 and w196
    pairs = [(x, y) for y in range(4) for x in range(49)]
    w_pairs = tuple([pair for pair in pairs if pair not in special] + list(special))
    w195, w196 = w_ids[194], w_ids[195]

    # v-block: vi ~ ws for s <= 194 with s != i, i + 97 (i <= 97), and
    # v98, v99 ~ w1..w194; v1..v97 ~ w195, w196.
    w_low = ((1 << 194) - 1) << 309
    rows = [w_low ^ (1 << 309 + t | 1 << 406 + t) | 1 << w195 | 1 << w196 for t in range(97)]
    rows += [w_low, w_low]
    # Kneser-complement block: adjacent iff the 4-subsets intersect.  The
    # xor drops the edge u1 ~ u2 and adds u1 ~ w195 and u2 ~ w196.
    rows += [row << 99 for row in kneser_graph(10, 4).complement().adj]
    rows[u1] ^= 1 << u2 | 1 << w195
    rows[u2] ^= 1 << u1 | 1 << w196
    # Cayley block; ws for s <= 194 misses exactly the one vi with
    # i = s (mod 97) among v1..v97.
    cayley = _cayley_rows(w_pairs)
    v_all, v_97 = (1 << 99) - 1, (1 << 97) - 1
    rows += [row << 309 | v_all & ~(1 << t % 97) for t, row in enumerate(cayley[:194])]
    rows += [cayley[194] << 309 | v_97 | 1 << u1, cayley[195] << 309 | v_97 | 1 << u2]

    graph = Graph._trusted(505, rows)
    return Mysterious505(graph, v_ids, kneser_ids, u1, u2, w_ids, w_pairs)


def mysterious505_prism_retraction(layout: Mysterious505) -> list[int]:
    """Retraction of the complementary prism of ``mysterious505`` onto 519 vertices.

    The image consists of the side-1 copy of the Kneser block together with
    the side-2 copies of the Kneser block and of all v vertices.  Writing
    (a, s) for the copy of a on side s and (x, y) for the field integers in
    ``w_pairs`` (x in 0..48, y in 0..3), which index ``layout.v`` directly:

    * Kneser-block vertices are fixed on both sides; (vi, 2) is fixed.
    * (wj, 1) for j <= 194 goes to (v_{x + 1}, 2);
      (w195, 1) and (w196, 1) go to (u1, 2) and (u2, 2).
    * (wj, 2) goes to (v_{50 + y}, 2), except j = 50..53 go to
      (v54..v57, 2) and j = 147..150 go to (v58..v61, 2).
    * (vi, 1) goes to (v62, 2), except (v62, 1) which goes to (v63, 2).
    """
    n = layout.graph.n

    def side2(base: int) -> int:
        return prism_index(base, 2, n)

    image = [-1] * (2 * n)
    for x in layout.kneser:
        image[prism_index(x, 1, n)] = prism_index(x, 1, n)
        image[side2(x)] = side2(x)
    for x in layout.v:
        image[side2(x)] = side2(x)

    for j in range(1, 197):
        w_prism = prism_index(layout.w[j - 1], 1, n)
        if j == 195:
            image[w_prism] = side2(layout.u1)
        elif j == 196:
            image[w_prism] = side2(layout.u2)
        else:
            x, _ = layout.w_pairs[j - 1]
            image[w_prism] = side2(layout.v[x])

    for j in range(1, 197):
        w_prism = side2(layout.w[j - 1])
        if 50 <= j <= 53:
            image[w_prism] = side2(layout.v[53 + (j - 50)])
        elif 147 <= j <= 150:
            image[w_prism] = side2(layout.v[57 + (j - 147)])
        else:
            _, y = layout.w_pairs[j - 1]
            image[w_prism] = side2(layout.v[49 + y])

    for i in range(1, 100):
        v_prism = prism_index(layout.v[i - 1], 1, n)
        image[v_prism] = side2(layout.v[62]) if i == 62 else side2(layout.v[61])

    if -1 in image:
        raise AssertionError("retraction table does not cover the prism")
    return image


# ---------------------------------------------------------------------------
# Name-based dispatcher (used by the command line interface).
# ---------------------------------------------------------------------------

# name -> (constructor, number of integer arguments)
NAMED_GRAPHS = {
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "complete": (complete_graph, 1),
    "empty": (empty_graph, 1),
    "star": (star_graph, 1),
    "paley": (paley_graph, 1),
    "kneser": (kneser_graph, 2),
    "petersen": (petersen_graph, 0),
    "figure_f9": (figure_f9, 1),
    "exa1": (exa1_graph, 0),
    "cay_f49xf4": (cay_f49xf4, 0),
    "mysterious505": (lambda: mysterious505().graph, 0),
}


def named_graph(spec: str) -> Graph:
    """Build a graph from a name like ``cycle:5``, ``paley:13``,
    ``kneser:10:4``, ``figure_f9:2``, ``petersen`` or ``mysterious505``."""
    parts = spec.strip().split(":")
    head, args = parts[0].lower(), parts[1:]
    if head not in NAMED_GRAPHS:
        raise ValueError(f"unknown graph name {spec!r}")
    build, k = NAMED_GRAPHS[head]
    if len(args) != k:
        raise ValueError(f"{head!r} expects {k} argument(s), got {len(args)}")
    return build(*[int(a) for a in args])
