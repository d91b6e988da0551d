"""Morphisms between graphs: search and verification.

This module provides

* exhaustive isomorphism/antimorphism search (most-constrained-vertex-first
  backtracking over candidate bitmasks with forward checking),
* homomorphism search (pin, then revise arcs to arc consistency; optional
  per-vertex candidate masks, optional node budget, optional automorphisms
  of the target under which the search tries one image per orbit),
* core computation by retraction descent: repeatedly find a proper
  endomorphism (one search per automorphism orbit of the retract, after a
  clique-number bound, each trying one image per orbit of the stabiliser
  of the dropped vertex), convert it into a retraction, restrict, repeat,
* permutation groups as generators plus a stabilizer chain built level by
  level from Sims-filtered Schreier generators (order, orbits,
  membership), automorphism group generators by
  orbit-pruned search, and exhaustive regular-subgroup search.

Each search keeps one state, its candidate bitmasks: an assigned vertex is
pinned to a single candidate, and the map a search returns is read off
those singletons.  Every vertex map, a permutation included, is a tuple of
images: the map v -> image[v].  Every map produced by a search can be
re-checked by the independent verifiers ``is_homomorphism`` /
``is_isomorphism_map`` / ``verify_retraction``, which share no code with
the searches.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf, lcm

from .graphs import Graph, bits


class BudgetExhausted(Exception):
    """Raised when a search runs out of its node budget."""


class SearchBudget:
    """A counter of search nodes with an optional limit.

    ``nodes`` counts every node spent; ``remaining`` is the nodes left
    before BudgetExhausted, or ``None`` for no limit.
    """

    __slots__ = ("remaining", "nodes")

    def __init__(self, limit: int | None = None):
        self.remaining = limit
        self.nodes = 0

    def spend(self) -> None:
        """Count one node; BudgetExhausted once the limit is passed."""
        self.nodes += 1
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhausted("search budget exhausted")


# ---------------------------------------------------------------------------
# Permutations, as image tuples like every other vertex map.
# ---------------------------------------------------------------------------


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a after b, on image tuples."""
    return tuple(map(a.__getitem__, b))


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _order(p: Sequence[int]) -> int:
    """The order of the permutation p: the lcm of its cycle lengths."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if not seen[start]:
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = p[x]
                length += 1
            order = lcm(order, length)
    return order


# Independent verifiers -- deliberately plain double loops, sharing nothing
# with the searches, so search results can be checked by different code.


def is_homomorphism(g1: Graph, g2: Graph, image) -> bool:
    """True iff every edge of g1 maps to an edge of g2 under ``image``."""
    image = list(image)
    if len(image) != g1.n:
        return False
    if any(not 0 <= x < g2.n for x in image):
        return False
    adj2 = g2.adj
    for v, row in enumerate(g1.adj):
        target = adj2[image[v]]
        row >>= v + 1  # each edge once, from its lower end: u = v + bit_length
        while row:
            low = row & -row
            if not (target >> image[v + low.bit_length()]) & 1:
                return False
            row ^= low
    return True


def is_isomorphism_map(g1: Graph, g2: Graph, image) -> bool:
    """True iff ``image`` is a bijection with edge iff edge.

    A bijective homomorphism sends distinct edges to distinct edges, so when
    both graphs have the same number of edges it is onto the edges of g2.
    """
    image = list(image)
    if g1.n != g2.n or sorted(image) != list(range(g1.n)):
        return False
    return g1.edge_count() == g2.edge_count() and is_homomorphism(g1, g2, image)


def is_antimorphism_map(g: Graph, image) -> bool:
    return is_isomorphism_map(g, g.complement(), image)


# ---------------------------------------------------------------------------
# Isomorphism / antimorphism search.
# ---------------------------------------------------------------------------


def _initial_candidates(g1: Graph, g2: Graph) -> list[int] | None:
    """Per-vertex candidate bitmasks, the vertices of g2 of equal degree,
    or None when the degree sequences differ (so do unequal vertex or edge
    counts).

    Degree classes suffice: once v is pinned to u, forward checking in
    ``_assign`` splits every other vertex's candidates into the neighbours
    of u and the rest, so a vertex whose neighbours' degrees differ from
    its candidate's is refuted one level below the pin."""
    deg1, deg2 = g1.degrees(), g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return None
    masks: dict[int, int] = {}
    for u, d in enumerate(deg2):
        masks[d] = masks.get(d, 0) | 1 << u
    return [masks[d] for d in deg1]


def _assign(adj1, adj2, cand: list[int], assigned: int, v: int, u: int) -> list[int] | None:
    """Candidates after pinning v to u (edge iff edge, injectivity), or None
    when some unassigned vertex is left without a candidate."""
    av, au = adj1[v], adj2[u]
    nxt = list(cand)
    nxt[v] = 1 << u
    for w in range(len(cand)):
        if w == v or assigned >> w & 1:
            continue
        m = nxt[w] & (au if av >> w & 1 else ~au) & ~(1 << u)
        if m == 0:
            return None
        nxt[w] = m
    return nxt


def _branch_vertex(cand: list[int], assigned: int) -> int:
    """The unassigned vertex with the fewest candidates (ties broken by
    index)."""
    best_v, best_c = -1, inf
    for v in range(len(cand)):
        if not assigned >> v & 1:
            c = cand[v].bit_count()
            if c < best_c:
                best_v, best_c = v, c
                if c <= 1:
                    break
    return best_v


def _singletons(cand: list[int]) -> tuple[int, ...]:
    """The map read off candidate masks that are all single bits."""
    return tuple(c.bit_length() - 1 for c in cand)


def _extend(adj1, adj2, cand, assigned, limit, results) -> bool:
    """Append to ``results`` the isomorphisms extending the partial map
    pinned in ``cand`` on the ``assigned`` vertices, whose other candidates
    are forward checked, branching at ``_branch_vertex``; True once
    ``limit`` maps are found.  A module-level function rather than a
    closure, so that the many short searches of ``automorphism_group``
    leave no reference cycles behind for the garbage collector."""
    if assigned == (1 << len(cand)) - 1:
        results.append(_singletons(cand))
        return limit is not None and len(results) >= limit
    v = _branch_vertex(cand, assigned)
    for u in bits(cand[v]):
        nxt = _assign(adj1, adj2, cand, assigned, v, u)
        if nxt is not None and _extend(adj1, adj2, nxt, assigned | 1 << v, limit, results):
            return True
    return False


def find_isomorphisms(
    g1: Graph, g2: Graph, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All (or the first ``limit``) isomorphisms g1 -> g2.

    Backtracking over per-vertex candidate bitmasks: always branch on the
    unassigned vertex with the fewest candidates (ties broken by index),
    propagating adjacency both ways (edge iff edge) plus injectivity.
    An empty list means the graphs are not isomorphic; the null graph's
    map is the empty tuple, so test the list, not a map.
    """
    if limit is not None and limit <= 0:
        return []
    init = _initial_candidates(g1, g2)
    if init is None:
        return []
    results: list[tuple[int, ...]] = []
    _extend(g1.adj, g2.adj, init, 0, limit, results)
    return results


def find_antimorphisms(g: Graph, limit: int | None = None) -> list[tuple[int, ...]]:
    """Isomorphisms from g onto its complement."""
    return find_isomorphisms(g, g.complement(), limit=limit)


def is_self_complementary(g: Graph) -> bool:
    return bool(find_antimorphisms(g, limit=1))


def antimorphism_facts(sigma: Sequence[int], g: Graph) -> tuple[int, tuple[int, ...]]:
    """Order and fixed points of a verified antimorphism of g, given as an
    image sequence.

    For a self-complementary graph on more than one vertex the order is
    divisible by four; when g is in addition regular the antimorphism has
    exactly one fixed point.  Raises ValueError if sigma is not an
    antimorphism of g.
    """
    if not is_antimorphism_map(g, sigma):
        raise ValueError("map is not an antimorphism of the graph")
    return _order(sigma), tuple(v for v, x in enumerate(sigma) if v == x)


# ---------------------------------------------------------------------------
# Homomorphism search.
# ---------------------------------------------------------------------------


def find_homomorphism(
    g1: Graph,
    g2: Graph,
    domains: Sequence[int] | None = None,
    budget: SearchBudget | None = None,
    symmetry: Sequence[Sequence[int]] = (),
) -> tuple[int, ...] | None:
    """Find a homomorphism g1 -> g2 sending each vertex v of g1 into the
    candidate bitmask ``domains[v]`` over V(g2), or prove none.

    Omitting ``domains`` allows all of g2 for every vertex; a single-bit
    mask pins its vertex.  Returns a verified image array, or None after an
    exhaustive search (a contradictory pin included); the null graph's
    homomorphism is the empty tuple, so test ``is None``.  Raises
    BudgetExhausted if a node budget is given and runs out, and ValueError
    for masks that do not fit the two graphs.

    ``symmetry`` holds automorphisms of g2 (image sequences) that map every
    domain onto itself.  At a node whose assigned vertices have images
    u1..uk, the branch vertex tries only the least candidate of each orbit
    of the group generated by the members that fix u1..uk.  That group
    fixes the given domains and the pins, and the pass to arc consistency
    commutes with it, so it fixes the node's domains: a skipped
    candidate's subtree is the image of an earlier sibling's, which has
    already failed.  The first leaf, and so the map returned, is the one
    found without ``symmetry``; only failing subtrees shrink.  Raises
    ValueError for a member that is not an automorphism of g2 or that moves
    a domain.
    """
    budget = budget or SearchBudget()
    n1, n2 = g1.n, g2.n
    full2 = (1 << n2) - 1
    cand = [full2] * n1 if domains is None else list(domains)
    if len(cand) != n1 or any(m & ~full2 for m in cand):
        raise ValueError("domains need one candidate mask over g2 per vertex of g1")
    sym = [tuple(p) for p in symmetry]
    for p in sym:
        if not is_isomorphism_map(g2, g2, p):
            raise ValueError("symmetry member is not an automorphism of g2")
        if any(sum(1 << p[x] for x in bits(m)) != m for m in set(cand)):
            raise ValueError("symmetry member moves a domain")
    if n1 == 0:
        return ()
    if not all(cand):
        return None

    adj2 = g2.adj
    nbrs = [tuple(bits(row)) for row in g1.adj]

    def propagate(cand: list[int], assigned: int, pending: int) -> bool:
        """Arc consistency over g1-edges into unassigned vertices; the one
        place a domain narrows.

        ``pending`` holds the vertices whose domains shrank since ``cand``
        was last arc consistent; only arcs into those are re-examined.  The
        arc-consistent closure is unique, so the result does not depend on
        the order in which vertices are popped.
        """
        while pending:
            low = pending & -pending
            pending ^= low
            w = low.bit_length() - 1
            support = 0
            m = cand[w]
            while m:
                b = m & -m
                support |= adj2[b.bit_length() - 1]
                m ^= b
            for x in nbrs[w]:
                if assigned >> x & 1:
                    continue
                cx = cand[x]
                keep = cx & support
                if keep != cx:
                    if not keep:
                        return False
                    cand[x] = keep
                    pending |= 1 << x
        return True

    full1 = (1 << n1) - 1

    if not propagate(cand, 0, full1):
        return None

    def rec(cand: list[int], assigned: int, sym: list[tuple[int, ...]]) -> list[int] | None:
        """The domains of the first leaf below this node, all pinned, or
        None when the subtree has no leaf.  ``sym`` holds the symmetry
        members that fix every image pinned so far."""
        budget.spend()
        if assigned == full1:
            return cand
        v = _branch_vertex(cand, assigned)
        assigned |= 1 << v
        rest = cand[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            nxt = list(cand)
            nxt[v] = low
            if propagate(nxt, assigned, 1 << v):
                leaf = rec(nxt, assigned, [p for p in sym if p[u] == u])
                if leaf is not None:
                    return leaf
            rest ^= low
            if sym and rest:  # the rest of u's orbit fails as u did
                for x in _orbit(sym, u):
                    rest &= ~(1 << x)
        return None

    leaf = rec(cand, 0, sym)
    if leaf is None:
        return None
    result = _singletons(leaf)
    if not is_homomorphism(g1, g2, result):
        raise AssertionError("search produced a non-homomorphism")
    return result


# ---------------------------------------------------------------------------
# Cores and retractions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreReport:
    """Result of a core computation.

    ``status`` is "ok" for a completed (exhaustive) computation and
    "unknown" when the budget ran out; in the latter case the reported
    vertices still carry a verified retraction of g, just not necessarily
    onto a core.
    """

    core_vertices: tuple[int, ...]
    retraction: tuple[int, ...]
    is_core_itself: bool
    status: str


def verify_retraction(g: Graph, image: Sequence[int], claimed_core) -> bool:
    """Check that the map v -> image[v] is a retraction of g onto
    ``claimed_core``.

    True iff the map is total on V(g), edge-preserving, has image inside
    claimed_core, and fixes claimed_core pointwise; False, never an error,
    for a map or claimed core that leaves V(g).
    """
    core = set(claimed_core)
    if len(image) != g.n:
        return False
    if any(not 0 <= x < g.n for x in image):
        return False
    if any(not 0 <= x < g.n for x in core):
        return False
    if any(image[x] not in core for x in range(g.n)):
        return False
    if any(image[x] != x for x in core):
        return False
    return is_homomorphism(g, g, image)


def _stabilized_retraction(g: Graph, endo: list[int]) -> tuple[list[int], list[int]]:
    """Turn an endomorphism of g into a retraction onto its eventual image.

    Iterating an endomorphism f (here by repeated squaring) reaches a power
    h = f^m whose image E satisfies h(E) = E, so tau = h|E permutes E and is
    an automorphism of the induced subgraph.  Then tau^{-1} composed with h
    is a homomorphism fixing E pointwise: a retraction onto E.
    Returns (sorted image list, retraction image array).
    """
    h = list(endo)
    while True:
        size = len(set(h))
        h2 = [h[h[x]] for x in range(len(h))]
        if len(set(h2)) == size:
            break
        h = h2
    image = sorted(set(h))
    tau = {e: h[e] for e in image}
    tau_inv = {v: k for k, v in tau.items()}
    if sorted(tau_inv) != image:
        raise AssertionError("stabilized endomorphism is not a permutation on its image")
    rho = [tau_inv[h[x]] for x in range(len(h))]
    if not is_homomorphism(g, g, rho):
        raise AssertionError("derived retraction is not a homomorphism")
    return image, rho


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, by branch and bound with a greedy coloring bound."""
    n = g.n
    if n == 0:
        return ()
    best: list[tuple[int, ...]] = [()]

    def expand(mask: int, clique: list[int]):
        order = []
        color = 0
        rest = mask
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~g.adj[v] & ~(1 << v)
                rest &= ~(1 << v)
        for v, c in reversed(order):
            if len(clique) + c <= len(best[0]):
                return
            clique.append(v)
            sub = mask & g.adj[v]
            if sub:
                expand(sub, clique)
            elif len(clique) > len(best[0]):
                best[0] = tuple(clique)
            clique.pop()
            mask &= ~(1 << v)

    expand((1 << n) - 1, [])
    return tuple(sorted(best[0]))


def compute_core(
    g: Graph,
    budget: SearchBudget | None = None,
    seed_endomorphisms: Sequence[Sequence[int]] = (),
) -> CoreReport:
    """Compute a core of g together with a retraction onto it.

    Descends by repeatedly finding a proper endomorphism of the current
    retract (a homomorphism into the retract minus one vertex, searched in
    the retract's own labels with that vertex cleared from every candidate
    mask), converting it into a retraction and restricting.  When no vertex
    can be dropped (each drop either ruled out by the exhaustive search or
    by the clique bound: a homomorphism cannot shrink the clique number),
    the retract is a core.  The clique bound applies at every size: each
    retract's clique number is computed, and a vertex whose removal lowers
    it is ruled out without a search.

    Each step searches only the least vertex of each orbit of Aut(retract),
    in ascending order.  If an automorphism sigma sends v to w, then
    f -> sigma f turns a map retract -> retract - v into one into
    retract - w, and sigma restricts to an isomorphism of the two targets,
    so one search (and one clique bound) decides the whole orbit.  Every
    earlier orbit fails in full, so the first vertex that succeeds is the
    one a scan of every vertex would pick, and the report is the same.

    Within a search, the automorphisms of the retract that fix the dropped
    vertex v map every candidate mask onto itself, so they go to
    ``find_homomorphism`` as ``symmetry``: a generating set of Stab(v), the
    Schreier generators of the orbit of v reduced by a Sims filter, built
    once per orbit representative.  The search then tries one image per
    orbit of the members that fix the images pinned so far.  It returns
    the map it would return without them, so the report is the same; only
    failing subtrees shrink.

    ``seed_endomorphisms`` may hold known endomorphisms of g (image
    arrays); they are folded in first, which can shrink the graph before
    any searching happens.  If a given node budget runs out the report has
    status "unknown" and carries the best retraction found so far.
    """
    n = g.n
    budget = budget or SearchBudget()
    psi = list(range(n))
    current = sorted(set(psi))

    def fold_full(endo: list[int]) -> None:
        nonlocal psi, current
        image, rho = _stabilized_retraction(g, endo)
        psi = [rho[psi[x]] for x in range(n)]
        current = image

    for seed in seed_endomorphisms:
        if not is_homomorphism(g, g, seed):
            raise ValueError("seed map is not an endomorphism")
        fold_full([seed[psi[x]] for x in range(n)])

    status = "ok"
    try:
        while True:
            sub = g.induced(current)
            m = sub.n
            full = (1 << m) - 1
            omega = len(max_clique(sub))
            gens = automorphism_generators(sub)[0]
            # orbits_of lists each orbit sorted, in ascending order of its least vertex
            for pos in (orbit[0] for orbit in orbits_of(gens, m)):
                minus = [i for i in range(m) if i != pos]
                if len(max_clique(sub.induced(minus))) < omega:
                    continue  # a homomorphism cannot shrink the clique number
                found = find_homomorphism(
                    sub,
                    sub,
                    [full & ~(1 << pos)] * m,
                    budget=budget,
                    symmetry=_stabiliser_generators(gens, pos)[1] if gens else (),
                )
                if found is None:
                    continue
                # Lift the local endomorphism of g[current] to one of g by
                # composing with the retraction collected so far.
                endo_global = {current[i]: current[x] for i, x in enumerate(found)}
                fold_full([endo_global[psi[x]] for x in range(n)])
                break
            else:  # no vertex can be dropped: the retract is a core
                break
    except BudgetExhausted:
        status = "unknown"

    if not verify_retraction(g, psi, current):
        raise AssertionError("computed map failed retraction verification")
    return CoreReport(
        core_vertices=tuple(current),
        retraction=tuple(psi),
        is_core_itself=(status == "ok" and len(current) == n),
        status=status,
    )


# ---------------------------------------------------------------------------
# Permutation groups.
# ---------------------------------------------------------------------------


# Largest group whose elements ``GroupDescription.elements`` will list.
ELEMENT_LIST_MAX = 100_000


@dataclass(frozen=True)
class GroupDescription:
    """A permutation group on {0..n-1}, given by generators and a stabilizer
    chain.

    ``base`` is a base (b_0, ..., b_{k-1}) and ``transversals[i]`` maps each
    point of the orbit of b_i under the pointwise stabilizer of b_0..b_{i-1}
    to a pair (element sending b_i there, its inverse), so ``order`` is the
    product of the transversal sizes.
    """

    generators: tuple[tuple[int, ...], ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]
    degree: int
    base: tuple[int, ...]
    transversals: tuple[dict, ...] = field(repr=False, compare=False)

    def is_transitive(self) -> bool:
        return len(self.orbits) == 1

    def __contains__(self, perm: Sequence[int]) -> bool:
        """Membership by sifting through the stabilizer chain; False for
        anything that is not a permutation of {0..degree-1}."""
        h = tuple(perm)
        if sorted(h) != list(range(self.degree)):
            return False
        return _sift(self.base, self.transversals, h) == tuple(range(self.degree))

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element, sorted by image; only for groups of at most
        ELEMENT_LIST_MAX elements."""
        if self.order > ELEMENT_LIST_MAX:
            raise ValueError(f"group of order {self.order} is too large to list")
        elems = [tuple(range(self.degree))]
        for level in reversed(self.transversals):
            elems = [_compose(u, h) for u, _ in level.values() for h in elems]
        return tuple(sorted(elems))


def orbits_of(perms, n: int) -> tuple[tuple[int, ...], ...]:
    """Orbits on {0..n-1} of the group generated by ``perms``."""
    seen = [False] * n
    out = []
    for start in range(n):
        if not seen[start]:
            orbit = _orbit(perms, start)
            for x in orbit:
                seen[x] = True
            out.append(tuple(sorted(orbit)))
    return tuple(out)


def _orbit(perms, v: int) -> set[int]:
    orbit = {v}
    queue = [v]
    for x in queue:
        for p in perms:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def _sift(base, trans, h: tuple[int, ...]) -> tuple[int, ...]:
    """Sift h through a stabilizer chain: the residue, which is the
    identity exactly when h is in the group."""
    for b, level in zip(base, trans):
        entry = level.get(h[b])
        if entry is None:
            break
        h = _compose(entry[1], h)
    return h


def _stabiliser_generators(gens, point: int) -> tuple[dict, list[tuple[int, ...]]]:
    """One level of a stabiliser chain of the group <gens>: the transversal
    of the orbit of ``point`` and generators of the stabiliser of ``point``.

    The transversal maps each point b of the orbit, found breadth first, to
    a pair (t_b, t_b^-1) with t_b sending ``point`` to b.  Schreier's lemma:
    the elements t_{s(b)}^-1 s t_b over every generator s and every b
    generate the stabiliser; a tree edge of the orbit (s t_b = t_{s(b)})
    gives the identity and is skipped.  A Sims filter then keeps at most one
    element per (first moved point, its image): an element whose pair is
    taken is divided by the kept one, which fixes one more point, until it
    finds a free pair or becomes the identity.  The kept elements generate
    the same group (Seress, Permutation Group Algorithms, 2003, section 4),
    and as a kept element fixes every point below its first moved point,
    its image is larger: a level keeps at most n(n-1)/2 elements on n
    points.  ``gens`` must be nonempty.
    """
    ident = tuple(range(len(gens[0])))
    transversal = {point: (ident, ident)}
    queue = [point]
    for b in queue:
        t = transversal[b][0]
        for s in gens:
            c = s[b]
            if c not in transversal:
                u = _compose(s, t)
                transversal[c] = (u, _invert(u))
                queue.append(c)
    kept: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for b, (t, _) in transversal.items():
        for s in gens:
            st = _compose(s, t)
            target, target_inv = transversal[s[b]]
            if st == target:
                continue  # a tree edge of the orbit: the identity
            h = _compose(target_inv, st)
            first = 0
            while h != ident:
                while h[first] == first:
                    first += 1
                key = (first, h[first])
                if key not in kept:
                    kept[key] = (h, _invert(h))
                    break
                h = _compose(kept[key][1], h)
    return transversal, [h for h, _ in kept.values()]


def group_tools(generators, degree: int) -> GroupDescription:
    """The group generated by ``generators``, permutations of
    {0..degree-1} as image sequences, with its stabilizer chain.

    The chain is built top-down, one ``_stabiliser_generators`` call per
    level: each level's base point is the first point moved by its first
    generator, and its generators are the stabiliser generators of the
    level above; the chain ends at the first level with none.  Identity
    generators and duplicates are dropped.  Raises ValueError for
    a generator that is not a permutation of {0..degree-1}.
    """
    uniq = {tuple(p) for p in generators}
    if any(sorted(p) != list(range(degree)) for p in uniq):
        raise ValueError(f"generator is not a permutation of range({degree})")
    uniq.discard(tuple(range(degree)))
    gens = tuple(sorted(uniq))
    base, transversals, order = [], [], 1
    level_gens = gens
    while level_gens:
        point = next(x for x, y in enumerate(level_gens[0]) if x != y)
        level, level_gens = _stabiliser_generators(level_gens, point)
        base.append(point)
        transversals.append(level)
        order *= len(level)
    return GroupDescription(
        generators=gens,
        order=order,
        orbits=orbits_of(gens, degree),
        degree=degree,
        base=tuple(base),
        transversals=tuple(transversals),
    )


def same_group(a: GroupDescription, b: GroupDescription) -> bool:
    """Equal orders, and the generators of each are members of the other."""
    return (
        a.order == b.order
        and all(p in b for p in a.generators)
        and all(p in a for p in b.generators)
    )


def automorphism_generators(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """Generators of Aut(g) by orbit-pruned search, and the group's order.

    The search first walks the identity path of the isomorphism search tree
    (every branch vertex sent to itself).  Then, from the deepest level up,
    at branch vertex v it searches (for one map) only the candidate images
    of v outside the orbit of v under the generators found so far, and
    keeps each map found as a generator.  All those generators fix the
    branch vertices above v, so the final orbit is the orbit of v in their
    pointwise stabilizer, and the order is the product of the orbit sizes
    along the path.  Every search runs a subtree of the full enumeration's
    tree.  Each generator is verified.
    """
    n = g.n
    adj = g.adj
    cand = _initial_candidates(g, g)
    path = []  # (candidates, assigned mask, branch vertex) per level
    assigned = 0
    while assigned != (1 << n) - 1:
        v = _branch_vertex(cand, assigned)
        path.append((cand, assigned, v))
        cand = _assign(adj, adj, cand, assigned, v, v)
        assigned |= 1 << v

    gens: list[tuple[int, ...]] = []
    order = 1
    for cand, assigned, v in reversed(path):
        orbit = {v}  # the generators found so far, all deeper, fix v
        for u in bits(cand[v]):
            if u in orbit:
                continue
            nxt = _assign(adj, adj, cand, assigned, v, u)
            if nxt is None:
                continue
            found: list[tuple[int, ...]] = []
            if _extend(adj, adj, nxt, assigned | 1 << v, 1, found):
                gens.append(found[0])
                orbit = _orbit(gens, v)
        order *= len(orbit)
    for p in gens:
        if not is_isomorphism_map(g, g, p):
            raise AssertionError("search produced a non-automorphism")
    return gens, order


def automorphism_group(g: Graph) -> GroupDescription:
    """The full automorphism group of g: the generators found by
    ``automorphism_generators`` with their stabilizer chain, whose order
    must equal the search's product of orbit sizes."""
    gens, order = automorphism_generators(g)
    group = group_tools(gens, g.n)
    if group.order != order:
        raise AssertionError("stabilizer chain order disagrees with the search's orbit sizes")
    return group


def has_regular_subgroup(group: GroupDescription) -> list[tuple[int, ...]] | None:
    """Exhaustive search for a subgroup acting regularly on {0..degree-1}.

    A regular subgroup has exactly one element sending 0 to each vertex, so
    the search picks one candidate per target and propagates forced
    products/inverses.  Returns the subgroup's elements, sorted, or None
    when the exhaustive search rules one out.  (By a classical result, a
    graph is a Cayley graph iff its automorphism group has such a
    subgroup.)
    """
    n = group.degree
    if n == 0:
        raise ValueError("a regular subgroup on no points is undefined")
    elements = group.elements
    by_target: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(n)}
    for p in elements:
        by_target[p[0]].append(p)
    if any(not v for v in by_target.values()):
        return None  # not even transitive on targets of 0

    def propagate(assign: dict[int, tuple[int, ...]], newcomer: tuple[int, ...]) -> bool:
        stack = [newcomer]
        while stack:
            a = stack.pop()
            cur = assign.get(a[0])
            if cur is not None:
                if cur != a:
                    return False
                continue
            assign[a[0]] = a
            stack.append(_invert(a))
            for b in list(assign.values()):
                stack.append(_compose(a, b))
                stack.append(_compose(b, a))
        return True

    def search(assign: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]] | None:
        if len(assign) == n:
            members = set(assign.values())
            for a in members:  # witness check: the members are closed
                for b in members:
                    if _compose(a, b) not in members:
                        raise AssertionError("regular subgroup search produced a non-closed set")
            return sorted(members)
        t = min(x for x in range(n) if x not in assign)
        for cand in by_target[t]:
            trial = dict(assign)
            if propagate(trial, cand):
                res = search(trial)
                if res is not None:
                    return res
        return None

    return search({0: tuple(range(n))})

