"""Structure theory of complementary prisms.

Given a graph G on vertex set V, its complementary prism has two copies of
V: side 1 (indices 0..n-1) carrying G, side 2 (indices n..2n-1) carrying
the complement, plus the perfect matching (v,1) ~ (v,2).

The automorphism group of the prism is completely described by a small set
of structure results:

* for graphs outside two exceptional one-parameter families, every prism
  automorphism either preserves both sides (one automorphism of G acting
  diagonally) or swaps them (one antimorphism acting as a swap);
* for the two families built over an inner graph L (see
  :mod:`prismatic.families`), an extra "special" automorphism s exists that
  mixes the sides, and the full group is generated by the diagonal/swap
  lifts together with s;
* for the pentagon, the prism is the Petersen graph and the group is S5.

This module detects family membership (each candidate outer path found by
degrees is rebuilt with :func:`prismatic.families.family_graph`, the one
definition of both families, and kept only if the rebuild is the graph),
builds the special automorphism and the structured group, classifies the
|Aut(prism)| / |Aut(G)| ratio, decides vertex-transitivity/Cayley-ness/
diameter of the prism, classifies where a computed core of the prism sits
(five mutually exclusive shapes), and checks that a prism is never a
nontrivial lexicographic product.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .families import JOINED_PAIR, family_graph
from .graphs import Graph, bits, complementary_prism, prism_index
from .morphisms import (
    GroupDescription,
    automorphism_group,
    find_antimorphisms,
    find_isomorphisms,
    group_tools,
    is_isomorphism_map,
    is_self_complementary,
    CoreReport,
    same_group,
    verify_retraction,
)


@dataclass(frozen=True)
class FamilyMatch:
    """A detected family structure inside a concrete graph.

    ``inner_vertices`` lists the graph's labels carrying the inner graph, in
    the vertex order of ``inner``; ``outer`` is the quadruple (y, v, u, z).
    """

    kind: str
    inner: Graph
    inner_vertices: tuple[int, ...]
    outer: tuple[int, int, int, int]


def detect_family(g: Graph) -> list[FamilyMatch]:
    """Detect whether g belongs to either family; [] means neither.

    A four-vertex path matches both families (with empty inner graph), and
    both matches are returned; the pentagon matches the pendant-pair kind
    over one vertex.  In a member on n vertices the outer path y-v-u-z has
    the degrees (n-3, 2, 2, n-3) for the pendant-pair ("C5") kind and
    (1, n-2, n-2, 1) for the apex-pair ("A") kind.  For each kind, every
    path y-v-u-z of distinct vertices with v < u and those degrees is a
    candidate, the rest of the vertices its inner graph, and the first
    candidate that ``reconstruct_from_match`` turns back into g is the
    match.  Detection is exact: an accepted match rebuilds g from the
    definition, so there are no false positives, and a member's own outer
    path passes the degree filter in one of its two directions (both kinds
    are symmetric under reversing the path), so there are no misses.
    """
    n, deg = g.n, g.degrees()
    matches = []
    for kind, end, mid in (("C5", n - 3, 2), ("A", 1, n - 2)):
        ends = sum(1 << x for x in range(n) if deg[x] == end)
        mids = sum(1 << x for x in range(n) if deg[x] == mid)
        candidates = (
            (y, v, u, z)
            for v in bits(mids)
            for u in bits(g.adj[v] & mids & -(2 << v))
            for y in bits(g.adj[v] & ends & ~(1 << u))
            for z in bits(g.adj[u] & ends & ~(1 << v | 1 << y))
        )
        for outer in candidates:
            rest = tuple(x for x in range(n) if x not in outer)
            match = FamilyMatch(kind, g.induced(rest), rest, outer)
            if reconstruct_from_match(match) == g:
                matches.append(match)
                break
    return matches


def reconstruct_from_match(match: FamilyMatch) -> Graph:
    """Rebuild the matched graph on its own labels: ``family_graph``
    relabelled, inner vertex i to ``inner_vertices[i]`` and y, v, u, z to
    ``outer``."""
    member = family_graph(match.kind, match.inner)
    return member.relabel(match.inner_vertices + match.outer)


# ---------------------------------------------------------------------------
# The special prism automorphism of family graphs.
# ---------------------------------------------------------------------------


def _special_map(g: Graph, match: FamilyMatch) -> tuple[int, ...]:
    """The table of the side-mixing prism automorphism s, unverified;
    callers check it against the prism.  With a, b the outer pair that the
    kind joins to every inner vertex (``JOINED_PAIR``) and c, d the path
    neighbours of a, b outside the pair, s is (c,1)(a,2) (d,1)(b,2)
    (c,2)(d,2), where (x,1) is x and (x,2) is n + x; it fixes every other
    prism vertex."""
    n = g.n
    pair = JOINED_PAIR[match.kind]
    a, b = (match.outer[i] for i in pair)
    c, d = (x for i, x in enumerate(match.outer) if i not in pair)
    image = list(range(2 * n))
    for p, q in ((c, n + a), (d, n + b), (n + c, n + d)):
        image[p], image[q] = q, p
    return tuple(image)


# ---------------------------------------------------------------------------
# Structured automorphism group of the prism.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioClass:
    """|Aut(prism of g)| / |Aut(g)|, the structural reason, and the label
    of the structure theorem that applies."""

    value: int
    reason: str
    structure_label: str


def ratio_class(
    matches: Sequence[FamilyMatch], antimorphism: tuple[int, ...] | None
) -> RatioClass:
    """Decide which structure theorem describes Aut(prism of g).

    Takes the family matches of g and one antimorphism of g (None when g is
    not self-complementary), never the group orders, so comparing the ratio
    with brute-force orders stays an independent check.  The only possible
    values are 12 (pentagon), 4 (family graph with self-complementary inner
    graph), 2 (family graph with non-self-complementary inner graph, or
    self-complementary non-family graph), and 1 (everything else); the
    structure labels are S5, SemidirectZ2, AutUnionAntimorphisms for
    self-complementary graphs outside the families, and PlainAut.
    """
    if any(m.kind == "C5" and m.inner.n == 1 for m in matches):
        return RatioClass(12, "pentagon: the prism is the Petersen graph", "S5")
    if matches:
        match = matches[0]
        if match.inner.n == 0 or is_self_complementary(match.inner):
            return RatioClass(
                4, f"{match.kind}-family with self-complementary inner graph", "SemidirectZ2"
            )
        return RatioClass(
            2, f"{match.kind}-family with non-self-complementary inner graph", "SemidirectZ2"
        )
    if antimorphism is not None:
        return RatioClass(2, "self-complementary, outside both families", "AutUnionAntimorphisms")
    return RatioClass(1, "outside both families and not self-complementary", "PlainAut")


@dataclass(frozen=True)
class PrismStructure:
    """Aut(prism of ``graph``) as the structure theorems describe it.

    ``prism`` is the prism its generators were verified against, ``matches``
    the family matches of the graph, ``base_group`` Aut(graph),
    ``antimorphism`` one antimorphism of the graph or None, ``group`` the
    assembled Aut(prism) and ``ratio`` the theorem's |Aut(prism)| / |Aut(graph)|.
    """

    graph: Graph
    prism: Graph
    matches: tuple[FamilyMatch, ...]
    base_group: GroupDescription
    antimorphism: tuple[int, ...] | None
    group: GroupDescription
    ratio: RatioClass

    def check(self, brute: GroupDescription) -> None:
        """Compare with a brute-force Aut(prism); AssertionError on any
        disagreement.  The assembled group must equal ``brute``, the ratio
        times |Aut(graph)| must equal its order, and outside the families
        every generator of ``brute`` must preserve or swap the two sides
        (such maps form a subgroup, so the generators stand for every
        element)."""
        where = f" on {self.graph.adj}"
        if not same_group(self.group, brute):
            raise AssertionError("structured prism group disagrees with brute force" + where)
        if self.base_group.order * self.ratio.value != brute.order:
            raise AssertionError("ratio classification disagrees with group orders" + where)
        if not self.matches:
            n = self.graph.n
            for p in brute.generators:
                if sum(p[v] >= n for v in range(n)) not in (0, n):
                    raise AssertionError("automorphism dichotomy failed" + where)


def structured_prism_aut(g: Graph, *, prism: Graph | None = None) -> PrismStructure:
    """Assemble Aut(prism of g) from the structure theorems, not brute force.

    One pass: detect the families, compute Aut(g) and search for one
    antimorphism, each once; ``ratio_class`` names the theorem from the
    matches and the antimorphism alone.  The group is given by generators:
    the diagonal lifts of generators of Aut(g), the swap lift of the
    antimorphism when g is self-complementary, and the special map s when
    g is in a family.  This covers the pentagon, the "C5" member over one
    vertex: its lifts generate AGL(1,5) of order 20, which is maximal in
    S5, and s mixes the sides so lies outside it; together they generate
    all of S5.  Every generator is verified as a prism automorphism, so
    the assembled group lies inside Aut(prism) and a wrong assembly shows
    as a smaller order.

    ``prism`` is the complementary prism of g when the caller has built it
    already; otherwise it is built here.
    """
    n = g.n
    if prism is None:
        prism = complementary_prism(g)
    matches = tuple(detect_family(g))
    base_group = automorphism_group(g)
    anti = next(iter(find_antimorphisms(g, limit=1)), None)
    ratio = ratio_class(matches, anti)

    generators = [p + tuple(n + x for x in p) for p in base_group.generators]
    if anti is not None:
        generators.append(tuple(n + x for x in anti) + anti)
    if matches:
        generators.append(_special_map(g, matches[0]))

    for p in generators:
        if not is_isomorphism_map(prism, prism, p):
            raise AssertionError("structured generator failed verification")
    group = group_tools(generators, 2 * n)
    return PrismStructure(g, prism, matches, base_group, anti, group, ratio)


# ---------------------------------------------------------------------------
# Prism predicates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrismPredicates:
    vertex_transitive: bool
    is_cayley: bool
    diameter: int


def prism_predicates(structure: PrismStructure) -> PrismPredicates:
    """Vertex-transitivity, Cayley-ness and diameter of the prism of a graph.

    Vertex-transitivity is computed twice -- via the characterization
    (Aut(g) transitive and an antimorphism exists) and via the orbits of the
    structured group -- and the two must agree.  The prism of a graph on
    more than one vertex is never a Cayley graph; the single-vertex prism
    is K2.  The diameter is at most three, exactly one for K2, and exactly
    two iff both g and its complement have diameter two.
    """
    g = structure.graph
    vt_characterization = (
        structure.base_group.is_transitive() and structure.antimorphism is not None
    )
    vt_orbits = structure.group.is_transitive()
    if vt_characterization != vt_orbits:
        raise AssertionError(
            "vertex-transitivity characterization disagrees with orbit computation"
        )
    diameter = structure.prism.diameter()
    if g.n == 1:
        if diameter != 1:
            raise AssertionError("prism of K1 must be K2")
    else:
        def diam_or_none(h: Graph):
            return h.diameter() if h.is_connected() else None

        both_two = diam_or_none(g) == 2 and diam_or_none(g.complement()) == 2
        if (diameter == 2) != both_two:
            raise AssertionError("diameter-two characterization failed")
        if diameter not in (2, 3):
            raise AssertionError("prism diameter out of range")
    return PrismPredicates(
        vertex_transitive=vt_orbits,
        is_cayley=(g.n == 1),
        diameter=diameter,
    )


# ---------------------------------------------------------------------------
# Core case classification.
# ---------------------------------------------------------------------------


class CoreCaseViolation(AssertionError):
    """The computed core fits none of the five admissible shapes."""


@dataclass(frozen=True)
class CoreCase:
    """Which of the five core shapes a computed prism core realizes.

    For the two partition cases the sets V1, V2, V3 partition the base
    vertex set; ``classify_core_case`` has verified the structural
    properties (b)-(e) of the partition before returning it.
    """

    case: str
    V1: tuple[int, ...] = ()
    V2: tuple[int, ...] = ()
    V3: tuple[int, ...] = ()


def classify_core_case(g: Graph, report: CoreReport, *, prism: Graph | None = None) -> CoreCase:
    """Classify a computed core of the prism of g into one of five shapes.

    The classifier never re-derives the classification theorem; it checks
    the reported core vertices against the case schemas and raises
    CoreCaseViolation on any mismatch, acting as a falsification harness.
    Only cores with status "ok" are accepted.  ``prism`` is the prism the
    core was computed on, when the caller has it; otherwise it is built here.
    """
    n = g.n
    if n == 2:
        raise ValueError("two-vertex base graphs are excluded from the classification")
    if report.status != "ok":
        raise ValueError("cannot classify an incomplete core computation")
    if prism is None:
        prism = complementary_prism(g)
    if not verify_retraction(prism, report.retraction, report.core_vertices):
        raise ValueError("report does not carry a retraction of the prism onto its core")
    core = set(report.core_vertices)
    U1 = {v for v in range(n) if v in core}
    U2 = {v for v in range(n) if n + v in core}

    if U1 == U2 == set(range(n)):
        return CoreCase("I_core")
    if not U2:
        return CoreCase("II_in_W1")
    if not U1:
        return CoreCase("III_in_W2")

    if U1 < U2:
        base, side = g, 2
        V2, V1 = U1, U2 - U1
        V3 = set(range(n)) - U2
    elif U2 < U1:
        base, side = g.complement(), 1
        V2, V1 = U2, U1 - U2
        V3 = set(range(n)) - U1
    else:
        raise CoreCaseViolation(
            f"core sides are incomparable or equal-but-partial: U1={sorted(U1)}, U2={sorted(U2)}"
        )
    if not V1 or not V2:
        raise CoreCaseViolation("partition sets V1, V2 must be nonempty")

    checks = {}
    checks["b_no_V1_V2_edge"] = all(
        not base.has_edge(a, b) for a in V1 for b in V2
    )
    checks["c_V3_at_most_one_V2_neighbor"] = all(
        sum(1 for b in V2 if base.has_edge(a, b)) <= 1 for a in V3
    )
    checks["d_some_V2_vertex_avoids_V3"] = any(
        all(not base.has_edge(b, a) for a in V3) for b in V2
    )

    # Retraction inclusions for the retraction we actually computed.
    psi = report.retraction
    main, other = (2, 1) if side == 2 else (1, 2)

    def pimg(v, s):
        return psi[prism_index(v, s, n)]

    in_main = lambda vs: {prism_index(v, main, n) for v in vs}
    checks["e_V3_main_side"] = all(
        pimg(v, main) in in_main(V1) for v in V3
    )
    checks["e_V3_other_side"] = all(
        pimg(v, other) in in_main(V1 | V2) for v in V3
    )
    checks["e_V1_other_side"] = all(
        pimg(v, other) in in_main(V1 | V2) for v in V1
    )

    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        raise CoreCaseViolation(f"partition case properties failed: {failed}")
    case = "IV_partition" if side == 2 else "V_partition"
    return CoreCase(
        case,
        V1=tuple(sorted(V1)),
        V2=tuple(sorted(V2)),
        V3=tuple(sorted(V3)),
    )


# ---------------------------------------------------------------------------
# Lexicographic-product exclusion.
# ---------------------------------------------------------------------------


def _module_closure(g: Graph, mask: int) -> int:
    """The smallest module of g containing ``mask``: add splitters (outside
    vertices adjacent to some but not all of the mask) until none is left."""
    while True:
        some, every = 0, -1
        for u in bits(mask):
            some, every = some | g.adj[u], every & g.adj[u]
        split = some & ~every & ~mask
        if not split:
            return mask
        mask |= split


def _is_lex_product(g: Graph, n1: int, n2: int) -> bool:
    """Does g factor as some product h1[h2] with |h1|=n1, |h2|=n2?

    Equivalently, V(g) splits into n1 modules of size n2 with pairwise
    isomorphic induced subgraphs (the fibres; the quotient is h1).  The
    block of the least free vertex v grows from {v}: add a free vertex and
    take the module closure, which stays inside every module holding the
    set, so exactly the modules through v are reached; a prime graph costs
    one closure per pair.  A closure that meets a placed block contains it
    (else their difference is a smaller module), so it exceeds n2.
    """
    def blocks(unassigned: int):
        seen: set[int] = set()
        stack = [unassigned & -unassigned]
        while stack:
            grown = stack.pop()
            for w in bits(unassigned & ~grown):
                block = _module_closure(g, grown | 1 << w)
                if block in seen or block.bit_count() > n2:
                    continue
                seen.add(block)
                if block.bit_count() == n2:
                    yield block
                else:
                    stack.append(block)

    def rec(unassigned: int, first: Graph | None) -> bool:
        if not unassigned:
            return True
        for block in blocks(unassigned):
            induced = g.induced(bits(block))
            if first is None or find_isomorphisms(first, induced, limit=1):
                if rec(unassigned & ~block, first or induced):
                    return True
        return False

    return rec((1 << g.n) - 1, None)


def not_lex_product_check(prism: Graph) -> bool | None:
    """True iff the graph is not a lexicographic product of two graphs on
    at least two vertices each, by ``_is_lex_product`` on every divisor
    split; None above 16 vertices, a cut-off of the output, not the cost."""
    N = prism.n
    if N > 16:
        return None
    splits = (n1 for n1 in range(2, N // 2 + 1) if N % n1 == 0)
    return not any(_is_lex_product(prism, n1, N // n1) for n1 in splits)
