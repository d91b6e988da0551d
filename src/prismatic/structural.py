"""Combinatorial invariants, Cheeger numbers, and Hamiltonian structure.

Cheeger numbers of complementary prisms have a two-value closed form; an
exhaustive scan of every partition, tabulated in numpy with exact integer
arithmetic, provides the independent oracle.  Hamiltonian witnesses come
from backtracking search, from Pósa rotations of the paths it finds, or
from explicit constructions that splice Hamiltonian cycles/paths of the
base graph and its complement into prism witnesses; every witness is
re-verified edge by edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .families import colex_subsets, kneser_graph
from .graphs import Graph, bits, complementary_prism, complete_graph, prism_index
from .morphisms import SearchBudget, find_homomorphism, max_clique

# numpy is imported inside cheeger_brute_force, its one user, so a command
# that never reaches it starts without paying for the import.


# ---------------------------------------------------------------------------
# Cliques, independent sets, colorings, connectivity.
# ---------------------------------------------------------------------------


def max_independent_set(g: Graph) -> tuple[int, ...]:
    return max_clique(g.complement())


def _dsatur_coloring(g: Graph) -> list[int]:
    n = g.n
    colors = [0] * n  # 1-based colors once assigned
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    degs = g.degrees()
    for _ in range(n):
        v = max(
            (x for x in range(n) if not colors[x]),
            key=lambda x: (len(neighbor_colors[x]), degs[x]),
        )
        c = 1
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in g.neighbors(v):
            neighbor_colors[u].add(c)
    return colors


CHROMATIC_EXACT_MAX_N = 48


def chromatic_number(
    g: Graph, *, clique: tuple[int, ...], indep: tuple[int, ...]
) -> tuple[int, list[int], bool]:
    """(chi, proper coloring with colors 1..chi, exact flag).

    A k-coloring is a homomorphism g -> K_k.  chi lies between
    max(omega, ceil(n / alpha)) and the DSATUR coloring's count.  Up to
    CHROMATIC_EXACT_MAX_N vertices, each k in between is decided by
    ``find_homomorphism(g, K_k)`` with single-bit masks pinning a maximum
    clique to colors 0..omega-1.  The pins remove only the permutations of
    the clique's own colors.  The adjacent transpositions of the unpinned
    colors omega..k-1 go to the search as ``symmetry``, so a vertex tries
    one color of each orbit of the transpositions that move no color in
    use, not every such color.  Beyond that the DSATUR coloring is
    returned, exact only if the bounds meet.
    The tests check chi against a plain backtracking search, _k_colorable.

    ``clique`` and ``indep`` are a maximum clique and a maximum independent
    set of g, which the caller (``invariants``) has found already.
    """
    n = g.n
    if n == 0:
        return 0, [], True
    lb = max(len(clique), -(-n // len(indep)))
    coloring = _dsatur_coloring(g)
    ub = max(coloring)
    if lb < ub and n <= CHROMATIC_EXACT_MAX_N:
        omega = len(clique)
        pins = {v: 1 << i for i, v in enumerate(clique)}
        for k in range(lb, ub):
            domains = [pins.get(v, (1 << k) - 1) for v in range(n)]
            # the swap of colors c and c + 1, for every unpinned c < k - 1
            swaps = [(*range(c), c + 1, c, *range(c + 2, k)) for c in range(omega, k - 1)]
            found = find_homomorphism(g, complete_graph(k), domains, symmetry=swaps)
            if found is not None:
                return k, [c + 1 for c in found], True
    return ub, coloring, lb == ub or n <= CHROMATIC_EXACT_MAX_N


def _split_network(g: Graph) -> tuple[list[int], list[int], list[list[int]]]:
    """Flat arc lists ``(head, cap, arcs_of)`` of the split graph of g.

    Node 2v is the in-node of v and 2v + 1 its out-node.  Arc e runs into
    ``head[e]`` with capacity ``cap[e]``, and arc ``e ^ 1`` is its reverse;
    ``arcs_of[a]`` lists the arcs leaving node a.  v_in -> v_out has capacity
    1, and each edge uv gives u_out -> v_in and v_out -> u_in of capacity n,
    more than any flow.  No augmenting path from s_out to t_in passes
    through s_in or t_out, so the unit capacities at s and t do not bound
    the flow, and one network serves every pair.
    """
    n = g.n
    head: list[int] = []
    cap: list[int] = []
    arcs_of: list[list[int]] = [[] for _ in range(2 * n)]

    def add(a: int, b: int, c: int):
        arcs_of[a].append(len(head))
        head.append(b)
        cap.append(c)
        arcs_of[b].append(len(head))
        head.append(a)
        cap.append(0)

    for v in range(n):
        add(2 * v, 2 * v + 1, 1)
    for v, u in g.edges():
        add(2 * v + 1, 2 * u, n)
        add(2 * u + 1, 2 * v, n)
    return head, cap, arcs_of


def _maxflow_vertex_disjoint(
    network: tuple[list[int], list[int], list[list[int]]], s: int, t: int, limit: int
) -> tuple[int, set[int] | None]:
    """Up to ``limit`` internally vertex-disjoint paths between non-adjacent s, t.

    ``network`` is ``_split_network(g)``; each call works on a fresh copy of
    its capacities.  Returns ``(limit, None)`` as soon as ``limit`` augmenting
    paths are found.  Otherwise the flow is maximum, and the second item is
    the minimum s-t vertex cut read off the final residual: the vertices whose
    in-node is reachable from s and whose out-node is not.
    """
    head, base_cap, arcs_of = network
    cap = base_cap[:]
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        via = [-1] * len(arcs_of)  # the arc that first reached each node, or -1
        via[source] = len(head)
        queue = [source]
        for a in queue:
            for e in arcs_of[a]:
                if cap[e]:
                    b = head[e]
                    if via[b] < 0:
                        via[b] = e
                        queue.append(b)
            if via[sink] >= 0:
                break
        else:
            # s_out is reached and t_in is not, so neither end is in the cut
            cut = {v for v in range(len(arcs_of) // 2) if via[2 * v] >= 0 and via[2 * v + 1] < 0}
            return flow, cut
        b = sink
        while b != source:
            e = via[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]
        flow += 1
    return flow, None


def vertex_connectivity(g: Graph) -> tuple[int, tuple[int, ...] | None]:
    """(kappa, minimum separating set or None for complete graphs).

    Esfahanian-Hakimi: take v, the least vertex of minimum degree delta, so
    kappa <= delta with witness N(v).  A minimum separator that misses v
    separates v from some non-neighbour w; one that contains v, being
    minimal, separates two non-adjacent neighbours of v.  So flows for those
    pairs alone, at most (n - delta - 1) + C(delta, 2), find kappa.  Each flow
    stops once it reaches the running minimum (Even), as it can then lower
    nothing.  Complete graphs have kappa n - 1 by convention and no
    separating witness.
    """
    n = g.n
    if n <= 1:
        return 0, None
    if g.edge_count() == n * (n - 1) // 2:
        return n - 1, None
    if not g.is_connected():
        return 0, ()
    degrees = g.degrees()
    best = min(degrees)
    v = degrees.index(best)
    nbrs = g.neighbors(v)
    best_cut = set(nbrs)
    pairs = [(v, w) for w in range(n) if w != v and not g.has_edge(v, w)]
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if not g.has_edge(x, y)]
    network = _split_network(g)
    for s, t in pairs:
        f, cut = _maxflow_vertex_disjoint(network, s, t, best)
        if cut is not None:
            best, best_cut = f, cut
    if len(best_cut) != best:
        raise AssertionError("cut witness has the wrong size")
    if g.induced(sorted(set(range(n)) - best_cut)).is_connected():
        raise AssertionError("cut witness failed to disconnect")
    return best, tuple(sorted(best_cut))


VERTEX_CONNECTIVITY_BRUTE_MAX_N = 12


def vertex_connectivity_brute(g: Graph) -> int:
    """Independent oracle: smallest vertex set whose removal disconnects."""
    n = g.n
    if n > VERTEX_CONNECTIVITY_BRUTE_MAX_N:
        raise ValueError("brute-force connectivity limited to 12 vertices")
    if n <= 1:
        return 0
    if g.edge_count() == n * (n - 1) // 2:
        return n - 1
    for size in range(0, n - 1):
        for cut in combinations(range(n), size):
            rest = sorted(set(range(n)) - set(cut))
            if not g.induced(rest).is_connected():
                return size
    return n - 1


@dataclass(frozen=True)
class InvariantReport:
    alpha: int
    omega: int
    chi: int
    kappa: int
    witnesses: dict
    exact: bool


def invariants(g: Graph) -> InvariantReport:
    """alpha, omega, chi, kappa with verifying witnesses."""
    clique = max_clique(g)
    if not all(g.has_edge(a, b) for a, b in combinations(clique, 2)):
        raise AssertionError("clique witness has a non-edge")
    indep = max_independent_set(g)
    if any(g.has_edge(a, b) for a, b in combinations(indep, 2)):
        raise AssertionError("independent set witness has an edge")
    chi, coloring, exact = chromatic_number(g, clique=clique, indep=indep)
    if any(coloring[v] == coloring[u] for v, u in g.edges()):
        raise AssertionError("coloring witness is not proper")
    kappa, cut = vertex_connectivity(g)
    alpha, omega = len(indep), len(clique)
    if chi < omega:
        raise AssertionError("chromatic number below the clique number")
    if alpha and chi < -(-g.n // alpha):  # chi >= n / alpha
        raise AssertionError("chromatic number below n / alpha")
    return InvariantReport(
        alpha=alpha,
        omega=omega,
        chi=chi,
        kappa=kappa,
        witnesses={
            "independent_set": indep,
            "clique": clique,
            "coloring": tuple(coloring),
            "cut": cut,
        },
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Cheeger numbers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheegerReport:
    value: Fraction
    witness: tuple[tuple[int, ...], tuple[int, ...]]
    method: str


def _edge_boundary(g: Graph, s_mask: int) -> int:
    total = 0
    for v in bits(s_mask):
        total += (g.adj[v] & ~s_mask).bit_count()
    return total


def _report_for(g: Graph, s_mask: int, method: str) -> CheegerReport:
    s = tuple(sorted(bits(s_mask)))
    t = tuple(sorted(set(range(g.n)) - set(s)))
    value = Fraction(_edge_boundary(g, s_mask), len(s))
    if not 1 <= len(s) <= len(t):
        raise AssertionError("Cheeger witness side S is empty or larger than T")
    return CheegerReport(value=value, witness=(s, t), method=method)


def cheeger_closed_form(g: Graph, *, prism: Graph | None = None) -> CheegerReport:
    """Cheeger number of the complementary prism of g.

    The value is 1 unless g or its complement contains an edge {u, v} with
    deg(u) = 1 and deg(v) = n - 1, in which case it is (n-1)/n with the
    cut S = {(u,1)} union {(w,2) : w != v} (sides swapped for the
    complement case).  The witness ratio is re-verified on the actual
    prism before returning: ``prism`` when the caller has built it already,
    otherwise one built here.
    """
    n = g.n
    if prism is None:
        prism = complementary_prism(g)

    def qualifying_edge(h: Graph):
        degs = h.degrees()
        for v, u in h.edges():
            if degs[v] == 1 and degs[u] == n - 1:
                return v, u
            if degs[u] == 1 and degs[v] == n - 1:
                return u, v
        return None

    for h, side_u, side_rest in ((g, 1, 2), (g.complement(), 2, 1)):
        hit = qualifying_edge(h)
        if hit is not None:
            u, v = hit
            s_mask = 1 << prism_index(u, side_u, n)
            for w in range(n):
                if w != v:
                    s_mask |= 1 << prism_index(w, side_rest, n)
            report = _report_for(prism, s_mask, "closed_form")
            if report.value != Fraction(n - 1, n):
                raise AssertionError("closed-form Cheeger witness does not give (n-1)/n")
            return report
    s_mask = (1 << n) - 1  # all of side 1; boundary is exactly the matching
    report = _report_for(prism, s_mask, "closed_form")
    if report.value != 1:
        raise AssertionError("closed-form Cheeger witness does not give 1")
    return report


CHEEGER_BRUTE_MAX_N = 20


def cheeger_brute_force(g: Graph) -> CheegerReport:
    """Exact Cheeger number by scanning every partition with |S| <= |T|.

    A subset DP tabulates the edge boundary of all 2^n subsets at once: for
    S within vertices 0..k-1,

        boundary[S + {k}] = boundary[S] + deg(k) - 2 |N(k) & S|,

    one vector step per vertex, filling entries 2^k..2^(k+1)-1 of the table
    from entries 0..2^k-1.  The table is int16: every boundary lies in
    [0, n^2 / 4], at most 100.  The minimum of boundary/|S| over
    1 <= |S| <= n/2 is taken exactly: the minimum boundary per size,
    compared by cross-multiplication.  The witness is the least mask
    attaining it, and ``_report_for`` counts its boundary again edge by
    edge.
    """
    n = g.n
    if n > CHEEGER_BRUTE_MAX_N:
        raise ValueError("brute-force Cheeger limited to 20 vertices")
    if n < 2:
        raise ValueError("Cheeger number needs at least two vertices")
    import numpy as np

    half = n // 2
    subsets = np.arange(1 << n, dtype=np.uint32)
    boundary = np.empty(1 << n, dtype=np.int16)
    boundary[0] = 0
    for k, row in enumerate(g.adj):
        m = 1 << k
        shared = np.bitwise_count(subsets[:m] & row)
        boundary[m : 2 * m] = boundary[:m] + row.bit_count() - 2 * shared
    sizes = np.bitwise_count(subsets)
    least = np.full(n + 1, n * n, dtype=np.int16)
    np.minimum.at(least, sizes, boundary)
    least = least.tolist()
    best_e, best_s = least[1], 1
    for size in range(2, half + 1):
        if least[size] * best_s < best_e * size:
            best_e, best_s = least[size], size
    witness = min(
        int(np.argmax((sizes == size) & (boundary == least[size])))
        for size in range(1, half + 1)
        if least[size] * best_s == best_e * size
    )
    report = _report_for(g, witness, "brute_force")
    if report.value != Fraction(best_e, best_s):
        raise AssertionError("brute-force Cheeger witness disagrees with the table")
    return report


# ---------------------------------------------------------------------------
# Hamiltonian paths and cycles.
# ---------------------------------------------------------------------------


def _check_ham_path(
    g: Graph, path: list[int], ends: tuple[int, int] | None = None, closed: bool = False
) -> list[int]:
    """Return ``path`` once it is verified edge by edge as a Hamiltonian path
    of g: from ``ends[0]`` to ``ends[1]`` when ``ends`` is given, and closing
    into a Hamiltonian cycle when ``closed``.  AssertionError otherwise."""
    if sorted(path) != list(range(g.n)):
        raise AssertionError("Hamiltonian witness does not visit every vertex once")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise AssertionError(f"Hamiltonian witness uses the non-edge {(a, b)}")
    if ends is not None and (path[0], path[-1]) != ends:
        raise AssertionError(f"Hamiltonian witness does not run between {ends}")
    if closed and not g.has_edge(path[-1], path[0]):
        raise AssertionError("Hamiltonian cycle witness does not close")
    return path


def _ham_path_from(g: Graph, start: int, end: int | None, budget: SearchBudget):
    """Hamiltonian path from start (to end, if given) by pruned DFS."""
    n = g.n
    full = (1 << n) - 1
    path = [start]

    def prune(current: int, visited: int) -> bool:
        remaining = full & ~visited
        reach = g.component_mask(current, remaining)
        if remaining & ~reach:
            return True
        # a vertex with no unvisited neighbors can only be terminal
        stuck = 0
        for v in bits(remaining):
            if not (g.adj[v] & remaining) and (end is None or v != end):
                stuck += 1
        if stuck > (1 if end is None else 0):
            return True
        # the fixed endpoint needs an unvisited predecessor unless it is next
        if end is not None and remaining != (1 << end):
            if not g.adj[end] & remaining & ~(1 << end):
                return True
        return False

    def rec(current: int, visited: int) -> bool:
        budget.spend()
        if visited == full:
            return end is None or current == end
        if prune(current, visited):
            return False
        for v in bits(g.adj[current] & ~visited):
            if end is not None and v == end and visited | (1 << v) != full:
                continue
            path.append(v)
            if rec(v, visited | (1 << v)):
                return True
            path.pop()
        return False

    return list(path) if rec(start, 1 << start) else None


def _close_under_rotations(g: Graph, path: list[int], store: dict) -> None:
    """Store ``path``, which runs from its lesser end, and every Hamiltonian
    path its Pósa rotations reach.

    If p0..pk is a Hamiltonian path and pk ~ pi with i < k - 1, then
    p0..pi, pk, pk-1..pi+1 is one from p0 to p(i+1); reversing the path
    rotates its other end.  ``store`` keeps one path per unordered pair of
    ends, running from the lesser end, and each stored path is expanded
    once, so the closure is bounded by C(n, 2) paths.  Every derived path is
    verified edge by edge before it is stored.
    """
    store[(path[0], path[-1])] = path
    todo = [path]
    while todo:
        p = todo.pop()
        for q in (p, p[::-1]):
            first, around = q[0], g.adj[q[-1]]
            for i in range(len(q) - 2):
                if around >> q[i] & 1:
                    end = q[i + 1]
                    key = (first, end) if first < end else (end, first)
                    if key not in store:
                        r = q[: i + 1] + q[:i:-1]
                        store[key] = _check_ham_path(g, r if first < end else r[::-1], ends=key)
                        todo.append(store[key])


def hamiltonian(
    g: Graph,
    mode: str,
    u: int | None = None,
    v: int | None = None,
    budget: SearchBudget | None = None,
):
    """Hamiltonian search: mode is "path", "cycle", "path_between" (with
    endpoints u, v; ValueError unless they are two distinct vertices of g)
    or "connected" (every pair, returns a dict of verified paths or None).

    "connected" walks the pairs a < b in order and searches by pruned DFS
    only a pair that no path found so far covers; each path the DFS finds is
    closed under Pósa rotations at both ends (``_close_under_rotations``),
    which spend no budget and usually cover most other pairs.  Only the DFS
    proves nonexistence, so the verdict is that of one search per pair.

    Witnesses are verified edge-by-edge before being returned; None means
    the exhaustive search proved nonexistence (a BudgetExhausted escape
    means no conclusion).
    """
    n = g.n
    budget = budget or SearchBudget()
    if mode == "path":
        if n == 0:
            return None
        if n == 1:
            return [0]
        for s in range(n):
            got = _ham_path_from(g, s, None, budget)
            if got:
                return _check_ham_path(g, got)
        return None
    if mode == "cycle":
        if n < 3:
            return [0] if n == 1 else None
        for t in g.neighbors(0):
            got = _ham_path_from(g, 0, t, budget)
            if got:
                return _check_ham_path(g, got, closed=True)
        return None
    if mode == "path_between":
        if u is None or v is None or u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"path_between needs two distinct endpoints below {n}")
        got = _ham_path_from(g, u, v, budget)
        return _check_ham_path(g, got, ends=(u, v)) if got else None
    if mode == "connected":
        out: dict[tuple[int, int], list[int]] = {}
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) in out:
                    continue
                got = _ham_path_from(g, a, b, budget)
                if got is None:
                    return None
                _close_under_rotations(g, _check_ham_path(g, got, ends=(a, b)), out)
        return out
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class PrismHamReport:
    p8_path: list | None
    ham_connected: dict | None
    notes: tuple[str, ...] = ()


def prism_ham_constructions(g: Graph, budget: SearchBudget | None = None) -> PrismHamReport:
    """Explicit prism Hamiltonian witnesses spliced from base-graph ones.

    The prism Hamiltonian path comes from Hamiltonian cycles of g and its
    complement, the second rotated to start where the first ends, joined
    through one matching edge.  When g and its complement are Hamiltonian-
    connected, all-pairs prism witnesses are assembled: same-side pairs
    detour through the whole opposite side between the first two vertices
    of the base path; cross pairs meet at a third vertex's matching edge.
    Every witness is verified against the actual prism.
    """
    n = g.n
    budget = budget or SearchBudget()  # one budget for all four searches
    prism = complementary_prism(g)
    notes: list[str] = []
    if n == 1:
        return PrismHamReport(p8_path=[0, 1], ham_connected={(0, 1): [0, 1]})
    comp = g.complement()

    cyc1 = hamiltonian(g, "cycle", budget=budget)
    cyc2 = hamiltonian(comp, "cycle", budget=budget)
    if cyc1 and cyc2:
        pivot = cyc1[-1]
        at = cyc2.index(pivot)
        rot = cyc2[at:] + cyc2[:at]
        p8 = [prism_index(x, 1, n) for x in cyc1] + [prism_index(x, 2, n) for x in rot]
        _check_ham_path(prism, p8)
    else:
        p8 = None
        notes.append("missing a Hamiltonian cycle in the base graph or its complement")

    ham_connected = None
    if n >= 3:
        paths1 = hamiltonian(g, "connected", budget=budget)
        paths2 = paths1 and hamiltonian(comp, "connected", budget=budget)
        if not paths2:
            notes.append("base graph or complement is not Hamiltonian-connected")
        else:
            for store in (paths1, paths2):  # one path per pair a < b; reverse it for b .. a
                store.update({(b, a): path[::-1] for (a, b), path in list(store.items())})
            ham_connected = {}
            for x in range(n):
                for y in range(n):
                    # same side: (x,1) .. (y,1) detours through the
                    # complement's paths on side 2, (x,2) .. (y,2) through g's
                    if x < y:
                        for side, own, other in ((1, paths1, paths2), (2, paths2, paths1)):
                            p = own[(x, y)]
                            q = other[(x, p[1])]
                            w = (
                                [prism_index(x, side, n)]
                                + [prism_index(c, 3 - side, n) for c in q]
                                + [prism_index(c, side, n) for c in p[1:]]
                            )
                            key = (prism_index(x, side, n), prism_index(y, side, n))
                            ham_connected[key] = _check_ham_path(prism, w, ends=key)
                    # cross pair: (x,1) .. (y,2) through a third vertex z
                    z = next(c for c in range(n) if c not in (x, y))
                    p = paths1[(x, z)]
                    q = paths2[(z, y)]
                    w = [prism_index(c, 1, n) for c in p] + [prism_index(c, 2, n) for c in q]
                    key = (prism_index(x, 1, n), prism_index(y, 2, n))
                    ham_connected[key] = _check_ham_path(prism, w, ends=key)
    else:
        notes.append("all-pairs construction needs at least three vertices")
    return PrismHamReport(p8_path=p8, ham_connected=ham_connected, notes=tuple(notes))


# ---------------------------------------------------------------------------
# The Kneser graph facts used by the big fixture.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KneserFactsReport:
    omega_kneser: int
    ekr_clique_size: int
    ekr_survives_edge_deletion: bool
    min_rule_coloring_proper: bool
    min_rule_colors: int
    cited_bounds: dict


def kneser_facts() -> KneserFactsReport:
    """Verified facts about K(10,4) and its complement.

    omega(K(10,4)) = 2 by exact clique search; the 84 four-subsets
    containing the first element form a clique in the complement
    (pairwise intersecting) that avoids the distinguished edge, so it
    survives that edge's deletion; the min-rule coloring (color = smallest
    element if <= 3, else a fourth color) is proper even after adding the
    edge between {1,2,3,4} and {2,3,4,5}.  Chromatic lower bounds are
    recorded as cited, not verified.
    """
    k = kneser_graph(10, 4)
    subsets = colex_subsets(10, 4)  # 4-subsets of {1..10} in colex order
    omega = len(max_clique(k))

    family = [i for i, s in enumerate(subsets) if 1 in s]
    if len(family) != math.comb(9, 3):
        raise AssertionError("the star at 1 does not have C(9, 3) members")
    if any(k.has_edge(a, b) for a, b in combinations(family, 2)):
        raise AssertionError("intersecting sets must be complement-adjacent")

    u1 = subsets.index(frozenset({1, 2, 3, 4}))
    u2 = subsets.index(frozenset({2, 3, 4, 5}))
    survives = u1 in family and u2 not in family

    def min_rule(s) -> int:
        return min(s) if min(s) <= 3 else 4

    colors = [min_rule(s) for s in subsets]
    proper = all(colors[a] != colors[b] for a, b in k.edges())
    proper = proper and colors[u1] != colors[u2]

    return KneserFactsReport(
        omega_kneser=omega,
        ekr_clique_size=len(family),
        ekr_survives_edge_deletion=survives,
        min_rule_coloring_proper=proper,
        min_rule_colors=max(colors),
        cited_bounds={
            "chi_kneser_lower_bound": 4,
            "chi_complement_minus_edge_lower_bound": 104,
            "complement_clique_upper_bound": 84,
        },
    )
