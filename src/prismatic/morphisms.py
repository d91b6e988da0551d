"""Morphisms between graphs: search and verification.

This module provides

* exhaustive isomorphism/antimorphism search (most-constrained-vertex-first
  backtracking over candidate bitmasks with forward checking),
* homomorphism search (forward checking plus incrementally maintained arc
  consistency, optional partial-map constraints, optional node budget),
* core computation by retraction descent: repeatedly find a proper
  endomorphism, convert it into a retraction, restrict, repeat,
* permutation-group utilities (closure, orbits, vertex-transitivity,
  exhaustive regular-subgroup search) and wreath-type maps on
  lexicographic products.

Every map produced by a search can be re-checked by the independent
verifiers ``is_homomorphism`` / ``is_isomorphism_map`` /
``verify_retraction``, which share no code with the searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .graphs import Graph, bits


class BudgetExhausted(Exception):
    """Raised when a search runs out of its node budget."""


class CapExceeded(Exception):
    """Raised when a group closure grows past its configured cap."""


class SearchBudget:
    """A counter of search nodes with an optional limit.

    ``nodes`` counts every node spent; ``remaining`` is the nodes left
    before BudgetExhausted, or ``None`` for no limit.
    """

    __slots__ = ("remaining", "nodes")

    def __init__(self, limit: int | None = None):
        self.remaining = limit
        self.nodes = 0

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExhausted("search budget exhausted")


def _as_budget(budget) -> SearchBudget:
    if budget is None or isinstance(budget, SearchBudget):
        return budget or SearchBudget()
    return SearchBudget(int(budget))


# ---------------------------------------------------------------------------
# Permutations and vertex maps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0..n-1} stored as an image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("not a permutation")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(x) = self(other(x))."""
        if other.n != self.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.image[x] for x in other.image))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.image):
            inv[x] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.image[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.image[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles())) if self.n else 1

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(v for v, x in enumerate(self.image) if v == x)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


@dataclass(frozen=True)
class VertexMap:
    """A total map between vertex sets, not necessarily injective."""

    source_n: int
    target_n: int
    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if len(image) != self.source_n:
            raise ValueError("image array has wrong length")
        if any(not 0 <= x < self.target_n for x in image):
            raise ValueError("image value out of range")

    def __call__(self, v: int) -> int:
        return self.image[v]


# Independent verifiers -- deliberately plain double loops, sharing nothing
# with the searches, so search results can be checked by different code.


def is_homomorphism(g1: Graph, g2: Graph, image) -> bool:
    """True iff every edge of g1 maps to an edge of g2 under ``image``."""
    image = list(image)
    if len(image) != g1.n:
        return False
    if any(not 0 <= x < g2.n for x in image):
        return False
    for u, v in g1.edges():
        if not g2.has_edge(image[u], image[v]):
            return False
    return True


def is_isomorphism_map(g1: Graph, g2: Graph, image) -> bool:
    """True iff ``image`` is a bijection with edge iff edge."""
    image = list(image)
    if g1.n != g2.n or len(image) != g1.n:
        return False
    if sorted(image) != list(range(g1.n)):
        return False
    for u in range(g1.n):
        for v in range(u + 1, g1.n):
            if g1.has_edge(u, v) != g2.has_edge(image[u], image[v]):
                return False
    return True


def is_antimorphism_map(g: Graph, image) -> bool:
    return is_isomorphism_map(g, g.complement(), image)


# ---------------------------------------------------------------------------
# Isomorphism / antimorphism search.
# ---------------------------------------------------------------------------


def find_isomorphisms(g1: Graph, g2: Graph, limit: int | None = None) -> list[Permutation]:
    """All (or the first ``limit``) isomorphisms g1 -> g2.

    Backtracking over per-vertex candidate bitmasks: always branch on the
    unassigned vertex with the fewest candidates (ties broken by index),
    propagating adjacency both ways (edge iff edge) plus injectivity.
    An empty list means the graphs are not isomorphic.
    """
    if limit is not None and limit <= 0:
        return []
    n = g1.n
    if n != g2.n or g1.edge_count() != g2.edge_count():
        return []
    if n == 0:
        return [Permutation(())]
    deg1, deg2 = g1.degrees(), g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return []
    prof1 = [tuple(sorted(deg1[u] for u in g1.neighbors(v))) for v in range(n)]
    prof2 = [tuple(sorted(deg2[u] for u in g2.neighbors(v))) for v in range(n)]
    init = []
    for v in range(n):
        m = 0
        for u in range(n):
            if deg1[v] == deg2[u] and prof1[v] == prof2[u]:
                m |= 1 << u
        if m == 0:
            return []
        init.append(m)

    adj1, adj2 = g1.adj, g2.adj
    full = (1 << n) - 1
    results: list[Permutation] = []
    img = [-1] * n

    def rec(cand: list[int], assigned: int) -> bool:
        if assigned == full:
            results.append(Permutation(tuple(img)))
            return limit is not None and len(results) >= limit
        best_v, best_c = -1, n + 2
        for v in range(n):
            if not assigned >> v & 1:
                c = cand[v].bit_count()
                if c < best_c:
                    best_v, best_c = v, c
                    if c <= 1:
                        break
        if best_c == 0:
            return False
        v = best_v
        av = adj1[v]
        for u in bits(cand[v]):
            au = adj2[u]
            nxt = list(cand)
            ok = True
            for w in range(n):
                if w == v or assigned >> w & 1:
                    continue
                m = nxt[w] & (au if av >> w & 1 else ~au)
                m &= ~(1 << u)
                if m == 0:
                    ok = False
                    break
                nxt[w] = m
            if ok:
                img[v] = u
                if rec(nxt, assigned | 1 << v):
                    return True
                img[v] = -1
        return False

    rec(init, 0)
    return results


def find_antimorphisms(g: Graph, limit: int | None = None) -> list[Permutation]:
    """Isomorphisms from g onto its complement."""
    return find_isomorphisms(g, g.complement(), limit=limit)


def is_self_complementary(g: Graph) -> bool:
    return bool(find_antimorphisms(g, limit=1))


def antimorphism_facts(sigma, g: Graph) -> tuple[int, tuple[int, ...]]:
    """Order and fixed points of a verified antimorphism of g.

    For a self-complementary graph on more than one vertex the order is
    divisible by four; when g is in addition regular the antimorphism has
    exactly one fixed point.  Raises ValueError if sigma is not an
    antimorphism of g.
    """
    perm = sigma if isinstance(sigma, Permutation) else Permutation(tuple(sigma))
    if not is_antimorphism_map(g, perm.image):
        raise ValueError("map is not an antimorphism of the graph")
    return perm.order(), perm.fixed_points()


# ---------------------------------------------------------------------------
# Homomorphism search.
# ---------------------------------------------------------------------------


def find_homomorphism(
    g1: Graph,
    g2: Graph,
    constraints: dict[int, int] | None = None,
    budget: SearchBudget | int | None = None,
) -> VertexMap | None:
    """Find a homomorphism g1 -> g2 extending ``constraints``, or prove none.

    Returns a verified VertexMap, or None after an exhaustive search.
    Raises BudgetExhausted if a node budget is given and runs out, and
    ValueError for a contradictory partial map.
    """
    budget = _as_budget(budget)
    n1, n2 = g1.n, g2.n
    if n1 == 0:
        return VertexMap(0, n2, ())
    if n2 == 0:
        return None
    full2 = (1 << n2) - 1
    cand = [full2] * n1
    if constraints:
        for v, u in constraints.items():
            if not (0 <= v < n1 and 0 <= u < n2):
                raise ValueError("constraint out of range")
            cand[v] = 1 << u
        fixed = sorted(constraints.items())
        for i, (v, u) in enumerate(fixed):
            for w, x in fixed[i + 1:]:
                if g1.has_edge(v, w) and not g2.has_edge(u, x):
                    raise ValueError(
                        f"contradictory partial map: edge {{{v},{w}}} sent to non-edge"
                    )

    adj2 = g2.adj
    nbrs = [tuple(bits(row)) for row in g1.adj]

    def propagate(cand: list[int], assigned: int, pending: int) -> bool:
        """Arc consistency over g1-edges between unassigned vertices.

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

    img = [-1] * n1
    full1 = (1 << n1) - 1

    if not propagate(cand, 0, full1):
        return None

    def rec(cand: list[int], assigned: int) -> bool:
        budget.spend()
        if assigned == full1:
            return True
        best_v, best_c = -1, n2 + 2
        for v in range(n1):
            if not assigned >> v & 1:
                c = cand[v].bit_count()
                if c < best_c:
                    best_v, best_c = v, c
                    if c <= 1:
                        break
        v = best_v
        assigned |= 1 << v
        for u in bits(cand[v]):
            au = adj2[u]
            nxt = list(cand)
            nxt[v] = 1 << u
            changed = 0
            for w in nbrs[v]:
                if assigned >> w & 1:
                    continue
                cw = nxt[w]
                m = cw & au
                if m != cw:
                    if not m:
                        break
                    nxt[w] = m
                    changed |= 1 << w
            else:  # forward checking left every neighbour a candidate
                if propagate(nxt, assigned, changed):
                    img[v] = u
                    if rec(nxt, assigned):
                        return True
                    img[v] = -1
        return False

    if not rec(cand, 0):
        return None
    result = VertexMap(n1, n2, tuple(img))
    if not is_homomorphism(g1, g2, result.image):
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
    retraction: VertexMap
    is_core_itself: bool
    status: str


def verify_retraction(g: Graph, psi, claimed_core) -> bool:
    """Check that psi is a retraction of g onto ``claimed_core``.

    True iff psi is total on V(g), edge-preserving, has image inside
    claimed_core, and fixes claimed_core pointwise.
    """
    image = list(psi.image if isinstance(psi, VertexMap) else psi)
    core = set(claimed_core)
    if len(image) != g.n:
        return False
    if any(not 0 <= x < g.n for x in image):
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


def compute_core(
    g: Graph,
    budget: SearchBudget | int | None = None,
    seed_endomorphisms=None,
) -> CoreReport:
    """Compute a core of g together with a retraction onto it.

    Descends by repeatedly finding a proper endomorphism of the current
    retract (a homomorphism into the retract minus one vertex), converting
    it into a retraction and restricting.  When no vertex can be dropped
    (each drop either ruled out by the exhaustive search or by the clique
    bound: a homomorphism cannot shrink the clique number), the retract is
    a core.

    ``seed_endomorphisms`` may hold known endomorphisms of g (image
    arrays); they are folded in first, which can shrink the graph before
    any searching happens.  If a given node budget runs out the report has
    status "unknown" and carries the best retraction found so far.
    """
    n = g.n
    budget = _as_budget(budget)
    psi = list(range(n))
    current = sorted(set(psi))

    def fold_full(endo: list[int]) -> None:
        nonlocal psi, current
        image, rho = _stabilized_retraction(g, endo)
        psi = [rho[psi[x]] for x in range(n)]
        current = image

    for seed in seed_endomorphisms or []:
        seed = list(seed.image if isinstance(seed, VertexMap) else seed)
        if not is_homomorphism(g, g, seed):
            raise ValueError("seed map is not an endomorphism")
        fold_full([seed[psi[x]] for x in range(n)])

    from .structural import max_clique  # structural imports this module

    status = "ok"
    while True:
        sub = g.induced(current)
        m = sub.n
        omega = len(max_clique(sub)) if m <= 60 else None
        progressed = False
        try:
            for pos in range(m):
                keep = [i for i in range(m) if i != pos]
                target = sub.induced(keep)
                if omega is not None and len(max_clique(target)) < omega:
                    continue  # a homomorphism cannot shrink the clique number
                found = find_homomorphism(sub, target, budget=budget)
                if found is None:
                    continue
                # Lift the local endomorphism of g[current] to one of g by
                # composing with the retraction collected so far.
                endo_global = {current[i]: current[keep[x]] for i, x in enumerate(found.image)}
                fold_full([endo_global[psi[x]] for x in range(n)])
                progressed = True
                break
        except BudgetExhausted:
            status = "unknown"
        if status == "unknown" or not progressed:
            break

    retraction = VertexMap(n, n, tuple(psi))
    if not verify_retraction(g, retraction, current):
        raise AssertionError("computed map failed retraction verification")
    return CoreReport(
        core_vertices=tuple(current),
        retraction=retraction,
        is_core_itself=(status == "ok" and len(current) == n),
        status=status,
    )


# ---------------------------------------------------------------------------
# Permutation groups.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupDescription:
    """An explicitly listed permutation group acting on {0..n-1}.

    ``structure_label`` is one of PlainAut, AutUnionAntimorphisms,
    SemidirectZ2, S5, Unlabeled -- a human-readable tag for how the group
    was assembled, not a certified abstract-group identification.
    """

    elements: tuple[Permutation, ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]
    structure_label: str = "Unlabeled"

    @property
    def degree(self) -> int:
        return self.elements[0].n if self.elements else 0

    def is_transitive(self) -> bool:
        return len(self.orbits) == 1


def orbits_of(elements, n: int) -> tuple[tuple[int, ...], ...]:
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        queue = [start]
        seen[start] = True
        while queue:
            x = queue.pop()
            for p in elements:
                y = p.image[x]
                if y not in orbit:
                    orbit.add(y)
                    seen[y] = True
                    queue.append(y)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def close_under_composition(perms, cap: int = 10**6) -> list[Permutation]:
    """BFS closure of a set of permutations under composition.

    The identity is always included.  Raises CapExceeded past ``cap``.
    """
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    n = perms[0].n
    ident = Permutation.identity(n)
    known = {ident.image: ident}
    frontier = [ident]
    gens = []
    for p in perms:
        if p.n != n:
            raise ValueError("degree mismatch")
        if p.image not in known:
            known[p.image] = p
            frontier.append(p)
        gens.append(p)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = a * b
                if c.image not in known:
                    known[c.image] = c
                    nxt.append(c)
                    if len(known) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    return sorted(known.values(), key=lambda p: p.image)


def group_tools(elements, label: str = "Unlabeled") -> GroupDescription:
    """Package the elements of a group as a GroupDescription.

    The caller asserts the list is already a group; duplicates are removed.
    """
    uniq = {p.image: p for p in elements}
    elems = sorted(uniq.values(), key=lambda p: p.image)
    if not elems:
        raise ValueError("empty element list")
    return GroupDescription(
        elements=tuple(elems),
        order=len(elems),
        orbits=orbits_of(elems, elems[0].n),
        structure_label=label,
    )


def automorphism_group(g: Graph, label: str = "PlainAut") -> GroupDescription:
    """The full automorphism group of g by exhaustive search."""
    return group_tools(find_isomorphisms(g, g), label=label)


def is_vertex_transitive(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("vertex-transitivity of the null graph is undefined")
    return automorphism_group(g).is_transitive()


def has_regular_subgroup(group: GroupDescription, n: int) -> list[Permutation] | None:
    """Exhaustive search for a subgroup acting regularly on {0..n-1}.

    A regular subgroup has exactly one element sending 0 to each vertex, so
    the search picks one candidate per target and propagates forced
    products/inverses.  Returns the subgroup's elements, or None when the
    exhaustive search rules one out.  (By a classical result, a graph is a
    Cayley graph iff its automorphism group has such a subgroup.)
    """
    if not group.elements or group.degree != n:
        raise ValueError("group degree does not match n")
    elems_set = {p.image for p in group.elements}
    by_target: dict[int, list[Permutation]] = {t: [] for t in range(n)}
    for p in group.elements:
        by_target[p.image[0]].append(p)
    if any(not v for v in by_target.values()):
        return None  # not even transitive on targets of 0

    def propagate(assign: dict[int, Permutation], newcomer: Permutation) -> bool:
        stack = [newcomer]
        while stack:
            a = stack.pop()
            t = a.image[0]
            cur = assign.get(t)
            if cur is not None:
                if cur.image != a.image:
                    return False
                continue
            if a.image not in elems_set:
                return False
            assign[t] = a
            stack.append(a.inverse())
            for b in list(assign.values()):
                stack.append(a * b)
                stack.append(b * a)
        return True

    def search(assign: dict[int, Permutation]) -> list[Permutation] | None:
        if len(assign) == n:
            members = list(assign.values())
            images = {p.image for p in members}
            for a in members:  # final closure sanity check
                for b in members:
                    if (a * b).image not in images:
                        return None
            return sorted(members, key=lambda p: p.image)
        t = min(x for x in range(n) if x not in assign)
        for cand in by_target[t]:
            trial = dict(assign)
            if propagate(trial, cand):
                res = search(trial)
                if res is not None:
                    return res
        return None

    return search({0: Permutation.identity(n)})


def wreath_map(g1: Graph, g2: Graph, phi, betas) -> VertexMap:
    """Assemble (v1, v2) -> (phi(v1), betas[v1](v2)) on the lexicographic
    product, verifying it is a homomorphism of the product.

    ``phi`` is an image array on g1, ``betas`` one image array on g2 per
    g1-vertex.  Vertex (a, b) of the product has index a*|V(g2)| + b.
    """
    from .graphs import lexicographic_product

    n1, n2 = g1.n, g2.n
    phi = list(phi)
    betas = [list(b) for b in betas]
    if len(phi) != n1 or len(betas) != n1 or any(len(b) != n2 for b in betas):
        raise ValueError("dimension mismatch")
    image = tuple(phi[a] * n2 + betas[a][b] for a in range(n1) for b in range(n2))
    product = lexicographic_product(g1, g2)
    if not is_homomorphism(product, product, image):
        raise ValueError("assembled map is not a homomorphism of the product")
    return VertexMap(n1 * n2, n1 * n2, image)
