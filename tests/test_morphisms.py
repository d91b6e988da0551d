import itertools
import math
import random
from collections import deque

import pytest

from prismatic.families import (
    family_graph,
    figure_f9,
    kneser_graph,
    paley_graph,
    petersen_graph,
)
from prismatic.graphs import (
    Graph,
    bits,
    build_graph,
    complementary_prism,
    complete_graph,
    cycle_graph,
    empty_graph,
    lexicographic_product,
    path_graph,
)
from prismatic.morphisms import (
    BudgetExhausted,
    CoreReport,
    SearchBudget,
    antimorphism_facts,
    automorphism_generators,
    automorphism_group,
    compute_core,
    find_antimorphisms,
    find_homomorphism,
    find_isomorphisms,
    group_tools,
    has_regular_subgroup,
    is_antimorphism_map,
    is_homomorphism,
    is_isomorphism_map,
    is_self_complementary,
    max_clique,
    orbits_of,
    same_group,
    verify_retraction,
)
from prismatic.morphisms import (
    _branch_vertex,
    _compose,
    _initial_candidates,
    _invert,
    _orbit,
    _order,
    _stabiliser_generators,
    _stabilized_retraction,
)
from prismatic.prisms import _special_map, detect_family, structured_prism_aut

# -- permutations as image tuples ---------------------------------------------


def test_permutation_basics():
    p, q = (1, 2, 0, 3), (0, 1, 3, 2)
    assert _compose(p, q) == (1, 2, 3, 0)  # p after q
    assert _compose(p, _invert(p)) == (0, 1, 2, 3)
    assert _order(p) == 3 and _order(q) == 2 and _order(()) == 1
    # order and fixed points of an antimorphism, as image tuple or list
    p4 = path_graph(4)
    for sigma in find_antimorphisms(p4):
        assert antimorphism_facts(sigma, p4) == (4, ())
    assert antimorphism_facts([0, 2, 4, 1, 3], cycle_graph(5)) == (4, (0,))  # x -> 2x
    g = paley_graph(9)
    facts = [antimorphism_facts(s, g) for s in find_antimorphisms(g)]
    assert len(facts) == 72
    assert all(order % 4 == 0 and len(fixed) == 1 for order, fixed in facts)
    with pytest.raises(ValueError):
        antimorphism_facts((1, 2, 0, 3), p4)  # a permutation, not an antimorphism


def test_permutation_rejects_non_bijections():
    # group_tools is where outside generators enter: it rejects non-bijections
    for bad in [(0, 0, 1), (0, 2), (1, 0), (0, 1, 2, 3), (0, 1, 3)]:
        with pytest.raises(ValueError, match="not a permutation"):
            group_tools([(1, 2, 0), bad], 3)
    # membership answers False for them, and never raises while sifting
    grp = group_tools([(1, 2, 0)], 3)
    assert (2, 0, 1) in grp and [2, 0, 1] in grp and (1, 0, 2) not in grp
    for bad in [(0, 0, 1), (0, 7, 1), (0, 1, -1), (0, 1), (0, 1, 2, 3), ()]:
        assert bad not in grp


def test_every_returned_map_is_a_plain_tuple_of_ints():
    c5, c6, p4, pet = cycle_graph(5), cycle_graph(6), path_graph(4), petersen_graph()
    null = empty_graph(0)
    group = automorphism_group(c5)
    family = family_graph("C5", p4)
    maps = {
        "find_isomorphisms": find_isomorphisms(c5, c5) + find_isomorphisms(null, null),
        "find_antimorphisms": find_antimorphisms(p4),
        "automorphism_generators": automorphism_generators(pet)[0],
        "generators": list(group.generators),
        "elements": list(group.elements),
        "_special_map": [_special_map(family, detect_family(family)[0])],
        "has_regular_subgroup": has_regular_subgroup(automorphism_group(c6)),
        "find_homomorphism": [find_homomorphism(c5, complete_graph(3)), find_homomorphism(null, p4)],
        "retraction": [compute_core(c6).retraction, compute_core(null).retraction],
        "antimorphism": [structured_prism_aut(p4).antimorphism],
    }
    for name, found in maps.items():
        assert found, name
        for m in found:
            assert type(m) is tuple and all(type(x) is int for x in m), (name, m)


# -- verifiers ----------------------------------------------------------------


def test_is_homomorphism_plain():
    c6, k2 = cycle_graph(6), complete_graph(2)
    assert is_homomorphism(c6, k2, [0, 1, 0, 1, 0, 1])
    assert not is_homomorphism(c6, k2, [0, 1, 0, 1, 0, 0])
    assert not is_homomorphism(c6, k2, [0, 1, 0])
    # an image outside V(k2) is a "no", not an IndexError
    assert not is_homomorphism(c6, k2, [0, 1, 0, 1, 0, 2])
    assert not is_homomorphism(c6, k2, [0, 1, 0, 1, 0, -1])


def test_is_isomorphism_map():
    c4 = cycle_graph(4)
    assert is_isomorphism_map(c4, c4, [1, 2, 3, 0])
    # non-injective or non-edge-reflecting maps are rejected
    assert not is_isomorphism_map(c4, c4, [0, 0, 1, 2])
    assert not is_isomorphism_map(c4, c4, [0, 2, 1, 3])


def isomorphism_map_reference(g1, g2, image):
    """The pairwise definition: a bijection that maps edges and non-edges alike."""
    image = list(image)
    if g1.n != g2.n or len(image) != g1.n or sorted(image) != list(range(g1.n)):
        return False
    return all(
        g1.has_edge(u, v) == g2.has_edge(image[u], image[v])
        for u in range(g1.n)
        for v in range(u + 1, g1.n)
    )


def test_is_isomorphism_map_matches_the_pairwise_reference():
    rng = random.Random(1401)
    verdicts = []
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        perm = rng.sample(range(n), n)
        copy = g.relabel(perm)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cases = [
            (copy, perm),
            (copy, [rng.randrange(n) for _ in range(n)]),  # usually not a bijection
            (copy, perm[:-1]),
            (copy, perm + [n]),
        ]
        if pairs:  # the relabelled copy with one pair flipped
            u, v = rng.choice(pairs)
            adj = list(copy.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            cases.append((Graph(n, adj), perm))
        edges, non_edges = list(copy.edges()), [p for p in pairs if not copy.has_edge(*p)]
        if edges and non_edges:  # one edge moved: equal edge counts, not an image
            drop, add = rng.choice(edges), rng.choice(non_edges)
            moved = build_graph(n, [e for e in edges if e != drop] + [add])
            cases.append((moved, perm))
        other = build_graph(n, rng.sample(pairs, g.edge_count()))  # equal edge count
        cases.append((other, perm))
        for target, image in cases:
            expected = isomorphism_map_reference(g, target, image)
            assert is_isomorphism_map(g, target, image) == expected
            verdicts.append(expected)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 900


def test_is_antimorphism_map_paley5_doubling():
    g = paley_graph(5)
    sigma = [(2 * x) % 5 for x in range(5)]
    assert is_antimorphism_map(g, sigma)
    order, fixed = antimorphism_facts(sigma, g)
    assert order == 4 and fixed == (0,)


# -- isomorphism search -------------------------------------------------------


def test_automorphism_counts():
    assert len(find_isomorphisms(cycle_graph(5), cycle_graph(5))) == 10
    assert len(find_isomorphisms(path_graph(4), path_graph(4))) == 2
    assert len(find_isomorphisms(complete_graph(4), complete_graph(4))) == 24
    p = petersen_graph()
    assert len(find_isomorphisms(p, p)) == 120


def test_isomorphism_limit_and_negatives():
    c6 = cycle_graph(6)
    assert len(find_isomorphisms(c6, c6, limit=3)) == 3
    assert find_isomorphisms(c6, c6, limit=0) == []
    assert find_isomorphisms(c6, path_graph(6)) == []
    assert find_isomorphisms(c6, cycle_graph(5)) == []
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert len(find_isomorphisms(two_triangles, two_triangles)) == 72


def test_prism_of_pentagon_is_petersen():
    prism = complementary_prism(cycle_graph(5))
    assert find_isomorphisms(prism, petersen_graph(), limit=1)


def brute_isomorphisms(g1, g2):
    """Every permutation the independent verifier accepts as g1 -> g2: an
    oracle sharing no code with the searches' candidate masks."""
    return {p for p in itertools.permutations(range(g1.n)) if is_isomorphism_map(g1, g2, p)}


def two_switch(rng, g):
    """g with edges ab, cd replaced by ac, bd where those are non-edges: the
    same degree sequence, often a different isomorphism class."""
    edges = list(g.edges())
    rng.shuffle(edges)
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return build_graph(g.n, kept + [(a, c), (b, d)])
    return None


def degree_profiles(g):
    """The multiset of (degree, sorted neighbour degrees) over the vertices."""
    deg = g.degrees()
    return sorted((deg[v], sorted(deg[u] for u in g.neighbors(v))) for v in range(g.n))


def test_isomorphism_searches_match_the_brute_force_oracle():
    rng = random.Random(28)
    graphs = [random_graph(rng, rng.randint(1, 6)) for _ in range(60)]
    graphs += [complementary_prism(random_graph(rng, rng.randint(1, 3))) for _ in range(12)]
    graphs += [cycle_graph(6), path_graph(5), petersen_graph().induced(range(6))]
    pairs = [(g, g.relabel(rng.sample(range(g.n), g.n))) for g in graphs]
    six = [random_graph(rng, 6) for _ in range(40)]
    switched = [(g, h) for g in graphs + six if (h := two_switch(rng, g)) is not None]
    pairs += switched
    pairs.append((cycle_graph(6), build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])))
    # pairs with one degree sequence that the neighbour-degree profiles tell apart
    profiled = [(g, h) for g, h in switched if degree_profiles(g) != degree_profiles(h)]
    assert len(profiled) >= 5
    for g1, g2 in pairs:
        want = brute_isomorphisms(g1, g2)
        got = find_isomorphisms(g1, g2)
        assert len(got) == len(set(got)) and set(got) == want, (g1.adj, g2.adj)
    for g in graphs:
        autos = brute_isomorphisms(g, g)
        gens, order = automorphism_generators(g)
        assert order == len(autos) and set(gens) <= autos
        assert set(find_antimorphisms(g)) == brute_isomorphisms(g, g.complement())


# -- antimorphisms ------------------------------------------------------------


def test_path4_antimorphisms():
    sigmas = find_antimorphisms(path_graph(4))
    assert len(sigmas) == 2
    for s in sigmas:
        assert antimorphism_facts(s, path_graph(4)) == (4, ())  # no fixed point, n even


def test_paley9_antimorphism_structure():
    g = paley_graph(9)
    sigmas = find_antimorphisms(g)
    auts = find_isomorphisms(g, g)
    # antimorphisms form a coset of the automorphism group
    assert len(sigmas) == len(auts) == 72
    for s in sigmas:
        order, fixed = antimorphism_facts(s, g)
        assert order % 4 == 0
        # 4-regular self-complementary on 9 vertices: exactly one fixed point
        assert len(fixed) == 1
    # composition parity
    for s in sigmas[:3]:
        for t in sigmas[:3]:
            assert is_isomorphism_map(g, g, _compose(s, t))
        for a in auts[:3]:
            assert is_antimorphism_map(g, _compose(s, a))


def test_is_self_complementary():
    assert is_self_complementary(path_graph(4))
    assert is_self_complementary(cycle_graph(5))
    assert is_self_complementary(paley_graph(9))
    assert not is_self_complementary(path_graph(3))
    assert not is_self_complementary(petersen_graph())


def test_non_self_complementary_has_no_antimorphisms():
    assert find_antimorphisms(cycle_graph(4)) == []


# -- homomorphism search ------------------------------------------------------


def test_homomorphism_odd_cycle_to_triangle():
    c5, k3 = cycle_graph(5), complete_graph(3)
    h = find_homomorphism(c5, k3)
    assert h is not None and is_homomorphism(c5, k3, h)
    # no homomorphism the other way: C5 is triangle-free
    assert find_homomorphism(k3, c5) is None


def test_homomorphism_respects_constraints():
    c5, k3 = cycle_graph(5), complete_graph(3)
    h = find_homomorphism(c5, k3, pin_masks(c5, k3, {0: 2, 1: 0}))
    assert h is not None and h[0] == 2 and h[1] == 0
    # a mask of several candidates keeps its vertex inside it
    h = find_homomorphism(c5, k3, [0b011, 0b110, 0b111, 0b111, 0b111])
    assert h is not None and h[0] in (0, 1) and h[1] in (1, 2)


def test_homomorphism_contradictory_constraints():
    # a contradictory pin is refuted by the first arc-consistency pass: an
    # ordinary None, like any other partial map without an extension
    p4 = path_graph(4)
    assert find_homomorphism(p4, p4, pin_masks(p4, p4, {0: 0, 1: 3})) is None


def test_homomorphism_masks_must_fit_the_graphs():
    p4, k3 = path_graph(4), complete_graph(3)
    for bad in ([0b111] * 3, [0b111] * 5, [0b1000] + [0b111] * 3, [-1] + [0b111] * 3):
        with pytest.raises(ValueError, match="one candidate mask"):
            find_homomorphism(p4, k3, bad)
    with pytest.raises(ValueError):
        find_homomorphism(empty_graph(0), k3, [0b1])
    # an empty mask is no error: that vertex has nowhere to go
    assert find_homomorphism(p4, k3, [0b111, 0, 0b111, 0b111]) is None
    assert find_homomorphism(empty_graph(1), empty_graph(0)) is None


def test_homomorphism_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        find_homomorphism(petersen_graph(), cycle_graph(5), budget=SearchBudget(5))


def test_no_homomorphism_to_shorter_odd_cycle():
    assert find_homomorphism(cycle_graph(5), cycle_graph(7)) is None
    h = find_homomorphism(cycle_graph(7), cycle_graph(5))
    assert h is not None


def reference_find_homomorphism(g1, g2, constraints=None, budget=None):
    """The full-requeue kernel that ``find_homomorphism`` replaced.

    At every node its ``ac3`` queues every arc between unassigned vertices
    and revises one candidate at a time.  Kept here as the slow reference:
    the incremental kernel must visit the same nodes and return the same map.
    """
    budget = budget or SearchBudget()
    n1, n2 = g1.n, g2.n
    if n1 == 0:
        return ()
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
                    raise ValueError("contradictory partial map")

    adj1, adj2 = g1.adj, g2.adj

    def ac3(cand, assigned):
        queue = deque(
            (w, w2)
            for w in range(n1)
            if not assigned >> w & 1
            for w2 in g1.neighbors(w)
            if not assigned >> w2 & 1
        )
        while queue:
            w, w2 = queue.popleft()
            m = cand[w]
            keep = 0
            cw2 = cand[w2]
            for u in bits(m):
                if adj2[u] & cw2:
                    keep |= 1 << u
            if keep != m:
                if keep == 0:
                    return False
                cand[w] = keep
                for x in g1.neighbors(w):
                    if not assigned >> x & 1 and x != w2:
                        queue.append((x, w))
        return True

    img = [-1] * n1
    full1 = (1 << n1) - 1

    if not ac3(cand, 0):
        return None

    def rec(cand, assigned):
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
        av = adj1[v]
        for u in bits(cand[v]):
            au = adj2[u]
            nxt = list(cand)
            nxt[v] = 1 << u
            ok = True
            for w in bits(av):
                if assigned >> w & 1 or w == v:
                    continue
                m = nxt[w] & au
                if m == 0:
                    ok = False
                    break
                nxt[w] = m
            if ok and ac3(nxt, assigned | 1 << v):
                img[v] = u
                if rec(nxt, assigned | 1 << v):
                    return True
                img[v] = -1
        return False

    if not rec(cand, 0):
        return None
    return tuple(img)


def random_graph(rng, n):
    density = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return build_graph(n, edges)


def pin_masks(g1, g2, constraints):
    """The candidate masks of ``find_homomorphism`` for a dictionary of pins."""
    domains = [(1 << g2.n) - 1] * g1.n
    for v, u in constraints.items():
        domains[v] = 1 << u
    return domains


def random_constraints(rng, g1, g2):
    """A random partial map that sends no edge of g1 to a non-edge of g2."""
    fixed = {}
    for v in rng.sample(range(g1.n), rng.randint(0, min(3, g1.n))):
        u = rng.randrange(g2.n)
        if all(not g1.has_edge(v, w) or g2.has_edge(u, x) for w, x in fixed.items()):
            fixed[v] = u
    return fixed


def assert_same_search(g1, g2, constraints=None):
    """The kernel, given the pins as masks, and the reference, given them as
    a dictionary, visit the same nodes and return the same map."""
    constraints = constraints or {}
    domains = pin_masks(g1, g2, constraints)
    new, old = SearchBudget(), SearchBudget()
    got = find_homomorphism(g1, g2, domains, budget=new)
    want = reference_find_homomorphism(g1, g2, constraints, budget=old)
    assert got == want
    assert new.nodes == old.nodes
    # both stop at the same node when the budget is one node short
    for kernel, given in ((find_homomorphism, domains), (reference_find_homomorphism, constraints)):
        if old.nodes:
            with pytest.raises(BudgetExhausted):
                kernel(g1, g2, given, budget=SearchBudget(old.nodes - 1))
        res = kernel(g1, g2, given, budget=SearchBudget(old.nodes))
        assert res == want


def test_homomorphism_search_matches_reference_on_random_pairs():
    rng = random.Random(20211)
    for _ in range(150):
        g1 = random_graph(rng, rng.randint(1, 10))
        g2 = random_graph(rng, rng.randint(1, 8))
        assert_same_search(g1, g2)
        assert_same_search(g1, g2, random_constraints(rng, g1, g2))


def test_homomorphism_search_matches_reference_on_prisms_minus_a_vertex():
    rng = random.Random(505)
    for _ in range(40):
        prism = complementary_prism(random_graph(rng, rng.randint(2, 5)))
        drop = rng.randrange(prism.n)
        target = prism.induced([v for v in range(prism.n) if v != drop])
        assert_same_search(prism, target)
        assert_same_search(prism, target, random_constraints(rng, prism, target))


def test_clearing_a_vertex_from_every_mask_searches_like_the_induced_target():
    # the core descent's search: prism -> prism with ``drop`` cleared from
    # every mask walks the tree of prism -> prism - drop, through the
    # order-preserving map from the induced target's labels to the prism's
    rng = random.Random(505)
    for _ in range(40):
        prism = complementary_prism(random_graph(rng, rng.randint(2, 5)))
        drop = rng.randrange(prism.n)
        keep = [v for v in range(prism.n) if v != drop]
        target = prism.induced(keep)
        pins = random_constraints(rng, prism, target)
        for given in ({}, pins):
            cleared, induced = SearchBudget(), SearchBudget()
            domains = [((1 << prism.n) - 1) & ~(1 << drop)] * prism.n
            for v, u in given.items():
                domains[v] = 1 << keep[u]
            got = find_homomorphism(prism, prism, domains, budget=cleared)
            want = find_homomorphism(prism, target, pin_masks(prism, target, given), budget=induced)
            assert cleared.nodes == induced.nodes
            assert got == (None if want is None else tuple(keep[x] for x in want))


def symmetric_graph(rng):
    """A random graph with automorphisms to spare: a prism, a lexicographic
    product or a circulant."""
    kind = rng.randrange(3)
    if kind == 0:
        return complementary_prism(random_graph(rng, rng.randint(1, 5)))
    if kind == 1:
        return lexicographic_product(
            random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 3))
        )
    n = rng.randint(3, 10)
    jumps = [d for d in range(1, n // 2 + 1) if rng.random() < 0.5]
    return build_graph(n, [(v, (v + d) % n) for v in range(n) for d in jumps])


def test_symmetry_returns_the_map_of_the_plain_search_in_no_more_nodes():
    rng = random.Random(2403)
    plain_total = pruned_total = found = 0
    for _ in range(250):
        g2 = symmetric_graph(rng)
        # half the time the core descent's kind of search, g2 -> g2
        g1 = g2 if rng.random() < 0.5 else random_graph(rng, rng.randint(1, 9))
        sym = [p for p in automorphism_generators(g2)[0] if rng.random() < 0.8]
        orbits = orbits_of(sym, g2.n)
        fixed = [orbit[0] for orbit in orbits if len(orbit) == 1]
        dropped = rng.choice(orbits)  # cleared from every domain but pins
        domains = []
        for _ in range(g1.n):
            if fixed and rng.random() < 0.1:
                domains.append(1 << rng.choice(fixed))  # a pin on a fixed point
            else:  # a union of orbits
                domains.append(
                    sum(1 << x for o in orbits if o != dropped and rng.random() < 0.9 for x in o)
                )
        plain, pruned = SearchBudget(), SearchBudget()
        want = find_homomorphism(g1, g2, domains, budget=plain)
        assert find_homomorphism(g1, g2, domains, pruned, sym) == want, (g1.adj, g2.adj)
        assert pruned.nodes <= plain.nodes
        plain_total += plain.nodes
        pruned_total += pruned.nodes
        found += want is not None
    assert 25 < found < 225  # both answers are exercised
    assert pruned_total < plain_total / 2


def test_symmetry_must_be_automorphisms_that_map_each_domain_onto_itself():
    c5 = cycle_graph(5)
    rotation, reflection = (1, 2, 3, 4, 0), (0, 4, 3, 2, 1)
    pin = [1] + [31] * 4  # vertex 0 pinned to 0
    assert find_homomorphism(c5, c5, symmetry=[rotation]) == find_homomorphism(c5, c5)
    assert find_homomorphism(c5, c5, pin, symmetry=[reflection]) == find_homomorphism(c5, c5, pin)
    for bad in ([(1, 0, 2, 3, 4)], [(0, 1, 2)], [(0, 1, 2, 3, 3)]):
        with pytest.raises(ValueError, match="automorphism"):
            find_homomorphism(c5, c5, symmetry=bad)
    with pytest.raises(ValueError, match="moves a domain"):
        find_homomorphism(c5, c5, pin, symmetry=[reflection, rotation])


def test_stabiliser_generators_generate_the_point_stabiliser():
    rng = random.Random(2404)
    for _ in range(60):
        g = symmetric_graph(rng)
        gens, order = automorphism_generators(g)
        if not gens:
            continue
        ident = tuple(range(g.n))
        for point in range(g.n):
            transversal, stab = _stabiliser_generators(gens, point)
            # the pairs _sift relies on: t sends point to its key, t^-1 undoes t
            assert set(transversal) == _orbit(gens, point)
            for b, (t, t_inv) in transversal.items():
                assert t[point] == b and _compose(t, t_inv) == ident
            assert all(p[point] == point for p in stab)
            # Sims filter: no identity, one element per (first moved point, image)
            firsts = [next(x for x in range(g.n) if p[x] != x) for p in stab]
            assert len({(x, p[x]) for x, p in zip(firsts, stab)}) == len(stab)
            # orbit-stabiliser: |Stab| |orbit| = |Aut|
            assert group_tools(stab, g.n).order * len(_orbit(gens, point)) == order


def reference_assign(adj1, adj2, cand, assigned, v, u):
    """Forward checking after sending v to u, leaving v's own candidates
    alone: the map lives in ``img``, not in the candidates."""
    av, au = adj1[v], adj2[u]
    nxt = list(cand)
    for w in range(len(cand)):
        if w == v or assigned >> w & 1:
            continue
        m = nxt[w] & (au if av >> w & 1 else ~au) & ~(1 << u)
        if m == 0:
            return None
        nxt[w] = m
    return nxt


def reference_extend(adj1, adj2, cand, assigned, img, limit, results):
    """The isomorphism kernel that kept its map twice, as the partial image
    list ``img`` and as the candidates.  Kept here as the reference: the
    kernel that reads the map off pinned candidates must list the same maps
    in the same order."""
    if assigned == (1 << len(cand)) - 1:
        results.append(tuple(img))
        return limit is not None and len(results) >= limit
    v = _branch_vertex(cand, assigned)
    if cand[v].bit_count() == 0:
        return False
    for u in bits(cand[v]):
        nxt = reference_assign(adj1, adj2, cand, assigned, v, u)
        if nxt is not None:
            img[v] = u
            if reference_extend(adj1, adj2, nxt, assigned | 1 << v, img, limit, results):
                return True
            img[v] = -1
    return False


def reference_find_isomorphisms(g1, g2, limit=None):
    if limit is not None and limit <= 0:
        return []
    init = _initial_candidates(g1, g2)
    if init is None:
        return []
    results = []
    reference_extend(g1.adj, g2.adj, init, 0, [-1] * g1.n, limit, results)
    return results


def reference_automorphism_generators(g):
    """``automorphism_generators`` on ``reference_extend``, rebuilding the
    partial map of the identity path at every level."""
    n, adj = g.n, g.adj
    cand = _initial_candidates(g, g)
    path = []
    assigned = 0
    while assigned != (1 << n) - 1:
        v = _branch_vertex(cand, assigned)
        path.append((cand, assigned, v))
        cand = reference_assign(adj, adj, cand, assigned, v, v)
        assigned |= 1 << v
    gens, order = [], 1
    for cand, assigned, v in reversed(path):
        orbit = {v}
        for u in bits(cand[v]):
            if u in orbit:
                continue
            nxt = reference_assign(adj, adj, cand, assigned, v, u)
            if nxt is None:
                continue
            img = [x if assigned >> x & 1 else -1 for x in range(n)]
            img[v] = u
            found = []
            if reference_extend(adj, adj, nxt, assigned | 1 << v, img, 1, found):
                gens.append(found[0])
                orbit = _orbit(gens, v)
        order *= len(orbit)
    return gens, order


def test_isomorphism_searches_match_the_image_list_reference():
    rng = random.Random(20)
    for _ in range(150):
        base = random_graph(rng, rng.randint(1, 8))
        for g in (base, complementary_prism(base)):
            other = g.relabel(rng.sample(range(g.n), g.n))
            assert find_isomorphisms(g, other) == reference_find_isomorphisms(g, other)
            assert find_isomorphisms(g, g, limit=3) == reference_find_isomorphisms(g, g, limit=3)
            assert find_antimorphisms(g) == reference_find_isomorphisms(g, g.complement())
            assert automorphism_generators(g) == reference_automorphism_generators(g)
    assert find_isomorphisms(empty_graph(0), empty_graph(0)) == [()]


def test_branch_vertex_handles_candidate_sets_wider_than_the_source():
    # a homomorphism source of two vertices into a ten-vertex target
    wide = (1 << 10) - 1
    cand = [wide, wide >> 1]
    v = _branch_vertex(cand, 0)
    assert (v, cand[v].bit_count()) == (1, 9)
    v = _branch_vertex(cand, 0b10)
    assert (v, cand[v].bit_count()) == (0, 10)


def test_search_budget_counts_nodes_without_a_limit():
    prism = complementary_prism(paley_graph(9))
    budget = SearchBudget()
    report = reference_compute_core(prism, budget=budget)
    assert report.is_core_itself
    # 18 exhaustive descent searches, each failing
    assert budget.nodes == 23220 and budget.limit is None
    # the prism is vertex-transitive: one orbit, so one failing search,
    # which tries one image per orbit of the stabiliser of the dropped
    # vertex (1,290 nodes when it tried every image)
    budget = SearchBudget()
    assert compute_core(prism, budget=budget) == report
    assert budget.nodes == 186 and budget.limit is None


# -- retractions and cores ----------------------------------------------------


def test_verify_retraction():
    c6 = cycle_graph(6)
    assert verify_retraction(c6, [0, 1, 0, 1, 0, 1], [0, 1])
    # must fix the claimed core pointwise
    assert not verify_retraction(c6, [1, 0, 1, 0, 1, 0], [0, 1])
    # must be a homomorphism
    assert not verify_retraction(c6, [0, 0, 0, 0, 0, 0], [0])
    # image must lie inside the claimed core
    assert not verify_retraction(c6, [0, 1, 0, 1, 0, 1], [0])
    # a claimed core outside V(g) is a "no", not an error
    assert not verify_retraction(complete_graph(1), [0], [0, 3])
    assert not verify_retraction(c6, [0, 1, 0, 1, 0, 1], [0, 1, -1])
    # so is an image that leaves V(g) or does not cover it
    c5 = cycle_graph(5)
    for image in ([0, 1, 2, 3, 7], [0, 1, 2, 3, -1], [0, 1, 2, 3]):
        assert not verify_retraction(c5, image, range(5))


def test_core_of_even_cycle_is_an_edge():
    rep = compute_core(cycle_graph(6))
    assert rep.status == "ok" and not rep.is_core_itself
    assert len(rep.core_vertices) == 2
    assert verify_retraction(cycle_graph(6), rep.retraction, rep.core_vertices)


def test_core_of_bipartite_complete():
    k33 = build_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    rep = compute_core(k33)
    assert len(rep.core_vertices) == 2


def test_odd_cycles_and_cliques_are_cores():
    for g in (cycle_graph(5), cycle_graph(7), complete_graph(4)):
        rep = compute_core(g)
        assert rep.is_core_itself
        assert rep.core_vertices == tuple(range(g.n))


def test_core_is_idempotent():
    rep = compute_core(cycle_graph(6))
    core = cycle_graph(6).induced(rep.core_vertices)
    again = compute_core(core)
    assert again.is_core_itself


def test_core_of_paley9_is_triangle():
    g = paley_graph(9)
    rep = compute_core(g)
    assert len(rep.core_vertices) == 3
    assert g.induced(rep.core_vertices).edge_count() == 3
    assert verify_retraction(g, rep.retraction, rep.core_vertices)


def test_core_of_vertex_transitive_graph_is_vertex_transitive():
    for g in (cycle_graph(4), cycle_graph(6), cycle_graph(5), complete_graph(5), paley_graph(9)):
        rep = compute_core(g)
        core = g.induced(rep.core_vertices)
        assert automorphism_group(core).is_transitive()


def test_core_of_connected_graph_is_connected():
    for g in (cycle_graph(6), paley_graph(9), path_graph(5)):
        rep = compute_core(g)
        assert g.induced(rep.core_vertices).is_connected()


MOSER_SPINDLE_EDGES = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 6),
    (0, 5), (5, 6), (4, 6), (4, 5), (3, 4),
]


def test_seed_that_is_not_an_endomorphism_is_rejected():
    with pytest.raises(ValueError, match="not an endomorphism"):
        compute_core(cycle_graph(5), seed_endomorphisms=[[0, 0, 1, 2, 3]])


def test_moser_spindle_is_a_core():
    spindle = build_graph(7, MOSER_SPINDLE_EDGES)
    rep = compute_core(spindle)
    assert rep.is_core_itself and rep.status == "ok"


def test_spindle_with_two_apexes_retracts_onto_spindle():
    extra = [(7, 1), (7, 2), (7, 4), (7, 8), (8, 3), (8, 5), (8, 6)]
    g = build_graph(9, MOSER_SPINDLE_EDGES + extra)
    # hand-built retraction folding the apexes onto spindle vertices
    psi = [0, 1, 2, 3, 4, 5, 6, 3, 4]
    assert verify_retraction(g, psi, range(7))
    rep = compute_core(g, seed_endomorphisms=[psi])
    spindle = build_graph(7, MOSER_SPINDLE_EDGES)
    assert len(rep.core_vertices) == 7
    assert find_isomorphisms(g.induced(rep.core_vertices), spindle, limit=1)
    # the blind computation finds a 7-vertex core too
    blind = compute_core(g)
    assert len(blind.core_vertices) == 7


def test_prism_of_c5_c5_is_a_core_within_a_budget():
    # C5[C5] is vertex-transitive and self-complementary.  The one search
    # of its 50-vertex prism's core descent tries one image per orbit of the
    # stabiliser of the dropped vertex; trying every image, it was still
    # undecided after 3,000,000 nodes
    prism = complementary_prism(lexicographic_product(cycle_graph(5), cycle_graph(5)))
    budget = SearchBudget(2000)
    rep = compute_core(prism, budget=budget)
    assert rep.status == "ok" and rep.is_core_itself
    assert budget.nodes == 1192


def test_clique_bound_applies_above_sixty_vertices():
    # K9 with a pendant path of i + 1 vertices at clique vertex i, the last
    # path lengthened to 61 vertices in all.  The clique bound rules every
    # clique vertex out at once; searching to refute each of those drops
    # spent 260,711 nodes when the bound stopped at 60 vertices
    edges = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    n = 9
    for i in range(9):
        prev = i
        for _ in range(i + 1 if i < 8 else 16):
            edges.append((prev, n))
            prev, n = n, n + 1
    g = build_graph(n, edges)
    assert g.n == 61
    budget = SearchBudget(1000)
    rep = compute_core(g, budget=budget)
    assert rep.status == "ok" and rep.core_vertices == tuple(range(9))
    assert verify_retraction(g, rep.retraction, rep.core_vertices)
    assert budget.nodes == 62


def test_core_budget_runs_out_gracefully():
    # the Petersen graph's one failing search takes 4 nodes
    rep = compute_core(petersen_graph(), budget=SearchBudget(3))
    assert rep.status == "unknown"
    assert verify_retraction(petersen_graph(), rep.retraction, rep.core_vertices)


def reference_compute_core(g, budget=None, seed_endomorphisms=()):
    """The per-vertex descent that ``compute_core`` replaced.

    Each step searches for a map sub -> sub - v for every vertex v of the
    current retract in ascending order, with no orbit pruning.  Kept here
    as the slow reference: the orbit-pruned descent must return the same
    report.
    """
    n = g.n
    budget = budget or SearchBudget()
    psi = list(range(n))
    current = list(range(n))

    def fold_full(endo):
        nonlocal psi, current
        image, rho = _stabilized_retraction(g, endo)
        psi = [rho[psi[x]] for x in range(n)]
        current = image

    for seed in seed_endomorphisms:
        assert is_homomorphism(g, g, seed)
        fold_full([seed[psi[x]] for x in range(n)])

    status = "ok"
    while True:
        sub = g.induced(current)
        m = sub.n
        omega = len(max_clique(sub))
        progressed = False
        try:
            for pos in range(m):
                keep = [i for i in range(m) if i != pos]
                target = sub.induced(keep)
                if len(max_clique(target)) < omega:
                    continue
                found = find_homomorphism(sub, target, budget=budget)
                if found is None:
                    continue
                endo_global = {current[i]: current[keep[x]] for i, x in enumerate(found)}
                fold_full([endo_global[psi[x]] for x in range(n)])
                progressed = True
                break
        except BudgetExhausted:
            status = "unknown"
        if status == "unknown" or not progressed:
            break

    assert verify_retraction(g, psi, current)
    return CoreReport(
        core_vertices=tuple(current),
        retraction=tuple(psi),
        is_core_itself=(status == "ok" and len(current) == n),
        status=status,
    )


def random_endomorphism(rng, g):
    """An endomorphism of g extending a random partial map, or None when
    that partial map has no extension."""
    return find_homomorphism(g, g, pin_masks(g, g, random_constraints(rng, g, g)))


def assert_same_core(g, seeds=()):
    got = compute_core(g, seed_endomorphisms=seeds)
    want = reference_compute_core(g, seed_endomorphisms=seeds)
    assert got.core_vertices == want.core_vertices, (g.adj, seeds)
    assert got.retraction == want.retraction, (g.adj, seeds)
    assert got.is_core_itself == want.is_core_itself
    assert got.status == want.status == "ok"


def core_cases():
    rng = random.Random(902)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 8))
        yield g, random_endomorphism(rng, g)
    for _ in range(40):
        g = complementary_prism(random_graph(rng, rng.randint(1, 5)))
        yield g, random_endomorphism(rng, g)
    for index in (1, 2, 3, 4):
        g = complementary_prism(figure_f9(index))
        yield g, random_endomorphism(rng, g)


def test_orbit_pruned_core_matches_the_per_vertex_descent():
    for g, endo in core_cases():
        assert_same_core(g)
        if endo is not None:
            assert_same_core(g, [endo])


# -- groups -------------------------------------------------------------------


def test_automorphism_group_petersen():
    grp = automorphism_group(petersen_graph())
    assert grp.order == 120
    assert grp.is_transitive()
    assert grp.degree == 10


def test_orbits_of_path():
    grp = automorphism_group(path_graph(4))
    assert grp.orbits == ((0, 3), (1, 2))


def test_vertex_transitivity():
    assert automorphism_group(cycle_graph(5)).is_transitive()
    assert automorphism_group(petersen_graph()).is_transitive()
    assert not automorphism_group(path_graph(4)).is_transitive()


class CapExceeded(Exception):
    """Raised when a group closure grows past its configured cap."""


def close_under_composition(perms, cap: int = 10**6) -> list[tuple[int, ...]]:
    """BFS closure of a set of permutations (image tuples) under
    composition: the brute-force reference for the stabilizer chain of
    ``group_tools``.

    The identity is always included.  Raises CapExceeded past ``cap``.
    """
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    n = len(perms[0])
    ident = tuple(range(n))
    known = {ident}
    frontier = [ident]
    for p in perms:
        if len(p) != n:
            raise ValueError("degree mismatch")
        if p not in known:
            known.add(p)
            frontier.append(p)
    while frontier:
        nxt = []
        for a in frontier:
            for b in perms:
                c = tuple(a[x] for x in b)  # a after b
                if c not in known:
                    known.add(c)
                    nxt.append(c)
                    if len(known) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    return sorted(known)


def test_close_under_composition_generates_s3():
    gens = [(1, 0, 2), (1, 2, 0)]
    group = close_under_composition(gens)
    assert len(group) == 6
    with pytest.raises(CapExceeded):
        close_under_composition(gens, cap=3)


def test_group_tools_dedupes():
    grp = group_tools([(0, 1, 2)] * 4, 3)
    assert grp.order == 1 and grp.generators == ()


def test_automorphism_group_matches_full_enumeration_on_random_graphs():
    # the generator search against the element-by-element enumeration, on
    # seeded random graphs up to 8 vertices and on their prisms
    rng = random.Random(20261018)
    for _ in range(250):
        base = random_graph(rng, rng.randint(1, 8))
        for g in (base, complementary_prism(base)):
            full = find_isomorphisms(g, g)
            grp = automorphism_group(g)
            assert grp.order == len(full), g.edges()
            assert grp.degree == g.n
            assert grp.orbits == orbits_of(full, g.n)
            assert grp.elements == tuple(sorted(full))
            assert all(p in grp for p in full)


def random_generators(rng, n):
    """One to three permutations of degree n, drawn so that small subgroups
    (with fixed points, cyclic) turn up as well as S_n and A_n; or, half the
    time, a redundant set of four to eight, some of them products of earlier
    ones, so that the Sims filter divides elements at several levels."""
    gens = []
    for _ in range(rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(4, 8)):
        image = list(range(n))
        kind = rng.randrange(5 if gens else 4)
        if kind == 0:  # any permutation
            rng.shuffle(image)
        elif kind == 1:  # any permutation of a random subset
            support = rng.sample(range(n), rng.randint(1, n))
            for x, y in zip(support, rng.sample(support, len(support))):
                image[x] = y
        elif kind == 2:  # a transposition, or the identity
            x, y = rng.randrange(n), rng.randrange(n)
            image[x], image[y] = y, x
        elif kind == 3:  # a rotation of the first m points
            m, shift = rng.randint(1, n), rng.randrange(n)
            image[:m] = [(x + shift) % m for x in range(m)]
        else:  # a product of two earlier ones
            image = _compose(rng.choice(gens), rng.choice(gens))
        gens.append(tuple(image))
    return gens


def test_schreier_sims_matches_closure_on_random_generators():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 7)
        gens = random_generators(rng, n)
        closure = close_under_composition(gens)
        members = set(closure)
        grp = group_tools(gens, n)
        assert grp.order == len(closure), gens
        assert grp.orbits == orbits_of(closure, n)
        assert grp.elements == tuple(closure)
        for p in closure:
            assert p in grp
        for _ in range(20):
            image = list(range(n))
            rng.shuffle(image)
            assert (tuple(image) in grp) == (tuple(image) in members)


def test_group_membership_rejects_wrong_degree():
    grp = automorphism_group(cycle_graph(5))
    assert tuple(range(5)) in grp
    assert tuple(range(6)) not in grp
    assert (1, 2, 3, 4, 0) in grp and (1, 0, 2, 3, 4) not in grp


def test_same_group_compares_order_and_generators():
    c5 = automorphism_group(cycle_graph(5))
    rotations = group_tools([(1, 2, 3, 4, 0)], 5)
    assert same_group(c5, group_tools(c5.generators, 5))
    assert not same_group(c5, rotations)
    assert rotations.order == 5


@pytest.mark.parametrize("n,k,order", [(5, 2, 120), (7, 3, 5040), (8, 3, 40320)])
def test_kneser_orders(n, k, order):
    grp = automorphism_group(kneser_graph(n, k))  # S_n, as n > 2k
    assert grp.order == order and grp.is_transitive()


@pytest.mark.parametrize(
    "g,order",
    [(empty_graph(n), math.factorial(n)) for n in range(1, 13)]
    + [
        # Sabidussi: Aut(C5[H]) is Aut(H) wr D5, of order |Aut(H)|^5 * 10, and
        # the prism of the self-complementary C5[H] doubles it
        (complementary_prism(lexicographic_product(cycle_graph(5), cycle_graph(5))), 2 * 10**5 * 10),
        (complementary_prism(lexicographic_product(cycle_graph(5), paley_graph(9))), 2 * 72**5 * 10),
    ],
    ids=[f"empty:{n}" for n in range(1, 13)] + ["C5[C5]-prism", "C5[Paley(9)]-prism"],
)
def test_closed_form_orders_past_the_closure_reference(g, order):
    # chains up to 15 levels deep, on groups far too large to enumerate
    assert automorphism_group(g).order == order


def test_kneser_9_2_order():
    grp = automorphism_group(kneser_graph(9, 2))
    assert grp.order == 362880 and grp.is_transitive()
    with pytest.raises(ValueError):
        grp.elements  # too large to list


def test_regular_subgroup_search():
    # C6 is a Cayley graph (circulant): a regular subgroup exists
    found = has_regular_subgroup(automorphism_group(cycle_graph(6)))
    assert found is not None and len(found) == 6
    assert found == sorted(found)
    images = {p[0] for p in found}
    assert images == set(range(6))
    # the Petersen graph is vertex-transitive but not Cayley
    assert has_regular_subgroup(automorphism_group(petersen_graph())) is None


def test_regular_subgroup_of_the_null_graph_is_a_precondition_error():
    with pytest.raises(ValueError, match="no points"):
        has_regular_subgroup(automorphism_group(empty_graph(0)))


def test_prisms_of_pentagon_and_path_are_not_cayley():
    for base in (cycle_graph(5), path_graph(4)):
        prism = complementary_prism(base)
        grp = automorphism_group(prism)
        assert has_regular_subgroup(grp) is None


# -- wreath-style maps on lexicographic products -------------------------------


def test_wreath_map_counts_automorphisms_of_small_product():
    p3, k2 = path_graph(3), complete_graph(2)
    product = lexicographic_product(p3, k2)
    images = set()
    for phi in find_isomorphisms(p3, p3):
        for mask in range(2 ** 3):
            betas = [[mask >> a & 1, 1 - (mask >> a & 1)] for a in range(3)]
            # (a, b) -> (phi(a), beta_a(b)); vertex (a, b) of p3[k2] is a * 2 + b
            wm = tuple(phi[a] * 2 + betas[a][b] for a in range(3) for b in range(2))
            assert is_isomorphism_map(product, product, wm)
            images.add(wm)
    assert len(images) == 2 * 2 ** 3
    assert len(find_isomorphisms(product, product)) == 16
