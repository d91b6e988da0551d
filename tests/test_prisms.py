import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prismatic import prisms
from prismatic.families import FamilySpec, family_graph, figure_f9, paley_graph, petersen_graph
from prismatic.graphs import (
    Graph,
    build_graph,
    complementary_prism,
    complete_graph,
    cycle_graph,
    empty_graph,
    lexicographic_product,
    path_graph,
    star_graph,
)
from prismatic.morphisms import (
    CoreReport,
    automorphism_group,
    compute_core,
    find_antimorphisms,
    find_isomorphisms,
    is_isomorphism_map,
)
from prismatic.morphisms import _order
from prismatic.prisms import (
    CoreCaseViolation,
    FamilyMatch,
    classify_core_case,
    detect_family,
    not_lex_product_check,
    prism_predicates,
    ratio_class,
    reconstruct_from_match,
    structured_prism_aut,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


INNER_SAMPLES = [
    empty_graph(0),
    empty_graph(1),
    empty_graph(2),
    empty_graph(3),
    complete_graph(2),
    complete_graph(3),
    path_graph(3),
    path_graph(4),
    cycle_graph(4),
    cycle_graph(5),
    star_graph(4),
]


# -- family detection ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["C5", "A"])
@pytest.mark.parametrize("idx", range(len(INNER_SAMPLES)))
def test_detect_family_round_trip(kind, idx):
    inner = INNER_SAMPLES[idx]
    g = family_graph(FamilySpec(kind, inner))
    matches = detect_family(g)
    assert any(m.kind == kind for m in matches)
    for m in matches:
        rebuilt = reconstruct_from_match(m)
        assert rebuilt.adj == g.adj


def test_detection_survives_relabelling():
    g = family_graph(FamilySpec("A", path_graph(3)))
    # reverse the vertex labels
    n = g.n
    perm = list(range(n))[::-1]
    relabeled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    matches = detect_family(relabeled)
    assert any(m.kind == "A" for m in matches)
    for m in matches:
        assert reconstruct_from_match(m).adj == relabeled.adj


def test_path4_matches_both_kinds():
    kinds = {m.kind for m in detect_family(path_graph(4))}
    assert kinds == {"C5", "A"}


def test_pentagon_matches_pendant_kind_with_one_inner_vertex():
    matches = detect_family(cycle_graph(5))
    assert matches and all(m.kind == "C5" and m.inner.n == 1 for m in matches)


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(4),
        complete_graph(5),
        petersen_graph(),
        empty_graph(4),
        star_graph(5),
        cycle_graph(6),
        paley_graph(9),
    ],
)
def test_detect_family_negatives(g):
    assert detect_family(g) == []


def test_detection_is_exact_on_all_small_graphs():
    # against the definition: a graph is in a family iff it is isomorphic to
    # a family member; the search only runs when the sorted degree sequences,
    # an isomorphism invariant, agree
    for n in range(4, 7):
        members = []
        for kind in ("C5", "A"):
            for inner in all_graphs(n - 4):
                member = family_graph(FamilySpec(kind, inner))
                members.append((kind, member, sorted(member.degrees())))
        for g in all_graphs(n):
            degrees = sorted(g.degrees())
            expected = {
                kind
                for kind, member, member_degrees in members
                if member_degrees == degrees and find_isomorphisms(member, g, limit=1)
            }
            matches = detect_family(g)
            assert {m.kind for m in matches} == expected, g.edges()
            for m in matches:
                assert reconstruct_from_match(m).adj == g.adj


@st.composite
def relabelled_family_members(draw):
    kind = draw(st.sampled_from(["C5", "A"]))
    k = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(k), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    inner = build_graph(k, [p for i, p in enumerate(pairs) if mask >> i & 1])
    g = family_graph(FamilySpec(kind, inner))
    perm = draw(st.permutations(range(g.n)))
    return kind, inner, build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(relabelled_family_members())
def test_detection_finds_relabelled_family_members(case):
    kind, inner, g = case
    matches = detect_family(g)
    assert kind in {m.kind for m in matches}
    for m in matches:
        assert reconstruct_from_match(m).adj == g.adj
        if m.kind == kind:
            assert find_isomorphisms(inner, m.inner, limit=1)


def all_quadruples_kinds(g):
    # every ordered quadruple of distinct vertices as (y, v, u, z), the rest
    # as the inner graph, kept when the rebuild gives g back
    kinds = set()
    for kind in ("C5", "A"):
        for outer in itertools.permutations(range(g.n), 4):
            rest = tuple(x for x in range(g.n) if x not in outer)
            if reconstruct_from_match(FamilyMatch(kind, g.induced(rest), rest, outer)) == g:
                kinds.add(kind)
                break
    return kinds


def flip(g, pairs):
    adj = list(g.adj)
    for a, b in pairs:
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
    return Graph(g.n, adj)


def test_detection_agrees_with_all_quadruples_on_members_and_near_members():
    # each seeded relabelled member also with one pair flipped, and with one
    # degree-preserving 2-switch (edges ab, cd become ac, bd), which keeps
    # the outer degrees and so reaches the rebuild check
    rng = random.Random(15)
    seen = []
    for n in range(7, 10):
        for kind in ("C5", "A"):
            k = n - 4
            inner = build_graph(
                k, [p for p in itertools.combinations(range(k), 2) if rng.random() < 0.5]
            )
            g = family_graph(FamilySpec(kind, inner)).relabel(rng.sample(range(n), n))
            edges = list(g.edges())
            while True:
                (a, b), (c, d) = rng.sample(edges, 2)
                if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
                    break
            near = [flip(g, [rng.sample(range(n), 2)]), flip(g, [(a, b), (c, d), (a, c), (b, d)])]
            for h in [g] + near:
                expected = all_quadruples_kinds(h)
                assert {m.kind for m in detect_family(h)} == expected, h.adj
                seen.append(bool(expected))
    # every member is found, and the near members hold both outcomes
    assert all(seen[0::3]) and {*seen[1::3], *seen[2::3]} == {False, True}


# -- the special prism automorphism -------------------------------------------


@pytest.mark.parametrize("kind", ["C5", "A"])
@pytest.mark.parametrize("idx", range(len(INNER_SAMPLES)))
def test_special_automorphism_is_verified_involution(kind, idx):
    inner = INNER_SAMPLES[idx]
    g = family_graph(FamilySpec(kind, inner))
    prism = complementary_prism(g)
    s = prisms._special_map(g, detect_family(g)[0])
    assert is_isomorphism_map(prism, prism, s)
    assert _order(s) == 2
    # it swaps sides somewhere but not everywhere
    n = g.n
    moved_across = [v for v in range(n) if s[v] >= n]
    assert moved_across and len(moved_across) < n


@pytest.mark.parametrize("kind", ["C5", "A"])
def test_structured_group_verifies_each_generator_once(kind, monkeypatch):
    g = family_graph(FamilySpec(kind, path_graph(3)))
    s = prisms._special_map(g, detect_family(g)[0])
    checked, prisms_built = [], []

    def counting_check(g1, g2, image):
        checked.append(tuple(image))
        return is_isomorphism_map(g1, g2, image)

    def counting_prism(base):
        prisms_built.append(base)
        return complementary_prism(base)

    monkeypatch.setattr(prisms, "is_isomorphism_map", counting_check)
    monkeypatch.setattr(prisms, "complementary_prism", counting_prism)
    structure = structured_prism_aut(g)
    assert len(checked) == len(set(checked))
    assert s in checked
    assert set(structure.group.generators) <= set(checked)
    assert len(prisms_built) == 1


# -- structured prism group vs brute force ------------------------------------


def brute_prism_group(g):
    prism = complementary_prism(g)
    return automorphism_group(prism)


def test_structured_group_matches_brute_force_exhaustively_n_le_4():
    count = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            structured = structured_prism_aut(g).group
            brute = brute_prism_group(g)
            assert structured.order == brute.order, g.edges()
            assert structured.elements == brute.elements
            count += 1
    assert count == 75  # 1 + 2 + 8 + 64


def test_structured_group_matches_brute_force_n_5():
    for g in all_graphs(5):
        structured = structured_prism_aut(g).group
        brute = brute_prism_group(g)
        assert structured.order == brute.order, g.edges()
        assert structured.elements == brute.elements


def test_structured_group_matches_brute_force_n_6_slice():
    # every 97th graph of the 2^15 on six vertices, a fixed deterministic slice
    pairs = list(itertools.combinations(range(6), 2))
    for mask in range(0, 1 << 15, 97):
        g = build_graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
        structured = structured_prism_aut(g).group
        brute = brute_prism_group(g)
        assert structured.order == brute.order, g.edges()
        assert structured.elements == brute.elements


def test_structured_group_labels():
    assert structured_prism_aut(cycle_graph(5)).ratio.structure_label == "S5"
    assert structured_prism_aut(path_graph(4)).ratio.structure_label == "SemidirectZ2"
    assert (
        structured_prism_aut(family_graph(FamilySpec("A", complete_graph(2)))).ratio.structure_label
        == "SemidirectZ2"
    )
    assert structured_prism_aut(paley_graph(9)).ratio.structure_label == "AutUnionAntimorphisms"
    assert structured_prism_aut(cycle_graph(4)).ratio.structure_label == "PlainAut"


def test_structured_group_on_pentagon_is_s5():
    grp = structured_prism_aut(cycle_graph(5)).group
    assert grp.order == 120
    assert grp.is_transitive()


def test_every_labelled_pentagon_assembles_s5_from_the_family_generators():
    labelled = {cycle_graph(5).relabel(p) for p in itertools.permutations(range(5))}
    assert len(labelled) == 12
    for g in labelled:
        structure = structured_prism_aut(g)
        structure.check(automorphism_group(complementary_prism(g)))
        assert structure.group.order == 120
        assert structure.ratio.structure_label == "S5"


# -- ratio classification -------------------------------------------------------


def ratio_of(g):
    antis = find_antimorphisms(g, limit=1)
    return ratio_class(detect_family(g), antis[0] if antis else None)


def test_ratio_values():
    assert ratio_of(cycle_graph(5)).value == 12
    assert ratio_of(path_graph(4)).value == 4  # empty inner graph
    # family with a self-complementary inner graph
    assert ratio_of(family_graph(FamilySpec("A", path_graph(4)))).value == 4
    # family with a non-self-complementary inner graph
    assert ratio_of(family_graph(FamilySpec("C5", complete_graph(2)))).value == 2
    # self-complementary outside the families
    assert ratio_of(paley_graph(9)).value == 2
    assert ratio_of(figure_f9(2)).value == 2
    # plain graphs
    assert ratio_of(cycle_graph(4)).value == 1
    assert ratio_of(petersen_graph()).value == 1


def test_ratio_matches_group_orders_on_all_small_graphs():
    for n in range(1, 5):
        for g in all_graphs(n):
            r = ratio_of(g)
            base = automorphism_group(g)
            prism = brute_prism_group(g)
            assert prism.order == r.value * base.order, (g.edges(), r)


def test_non_family_prism_automorphisms_respect_or_swap_sides():
    # outside the families every prism automorphism is all-diagonal or all-swap
    for g in [cycle_graph(4), paley_graph(9), complete_graph(4), empty_graph(3)]:
        n = g.n
        for p in brute_prism_group(g).elements:
            across = [v for v in range(n) if p[v] >= n]
            assert len(across) in (0, n), (g.edges(), p)


# -- the one brute-force check ----------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [cycle_graph(5), path_graph(4), paley_graph(9), cycle_graph(4)],
    ids=["<C5 n=5 m=5>", "<P4 n=4 m=3>", "<paley(9) n=9 m=18>", "<C4 n=4 m=4>"],
)
def test_check_accepts_brute_force_and_rejects_a_wrong_ratio_or_group(g):
    record = structured_prism_aut(g)
    brute = brute_prism_group(g)
    record.check(brute)
    wrong_ratio = dataclasses.replace(
        record, ratio=dataclasses.replace(record.ratio, value=2 * record.ratio.value)
    )
    with pytest.raises(AssertionError, match="ratio"):
        wrong_ratio.check(brute)
    # the prism relabelled by one transposition across the sides: same order,
    # another group
    n = g.n
    perm = list(range(2 * n))
    perm[1], perm[n + 2] = perm[n + 2], perm[1]
    other = automorphism_group(complementary_prism(g).relabel(perm))
    assert other.order == brute.order
    with pytest.raises(AssertionError, match="disagrees with brute force"):
        record.check(other)


def test_check_applies_the_side_dichotomy_outside_the_families():
    # P4 is a family graph, so its prism has side-mixing automorphisms; a
    # record that forgets the match must fail the dichotomy
    record = structured_prism_aut(path_graph(4))
    with pytest.raises(AssertionError, match="dichotomy"):
        dataclasses.replace(record, matches=()).check(brute_prism_group(path_graph(4)))


# -- prism predicates -----------------------------------------------------------


def test_prism_predicates_pentagon():
    pred = prism_predicates(structured_prism_aut(cycle_graph(5)))
    assert pred.vertex_transitive            # the Petersen graph
    assert not pred.is_cayley
    assert pred.diameter == 2


def test_prism_predicates_paley9():
    pred = prism_predicates(structured_prism_aut(paley_graph(9)))
    assert pred.vertex_transitive
    assert not pred.is_cayley
    assert pred.diameter == 2


def test_prism_predicates_path():
    pred = prism_predicates(structured_prism_aut(path_graph(4)))
    assert not pred.vertex_transitive
    assert pred.diameter == 3


def test_prism_predicates_vertex_transitive_base_that_is_not_self_complementary():
    # both halves of the characterization matter: C6 is vertex-transitive,
    # but without an antimorphism its prism is not
    pred = prism_predicates(structured_prism_aut(cycle_graph(6)))
    assert not pred.vertex_transitive
    assert pred.diameter == 3


def test_prism_predicates_k1():
    pred = prism_predicates(structured_prism_aut(complete_graph(1)))
    assert pred.vertex_transitive and pred.is_cayley
    assert pred.diameter == 1


# -- core case classification ---------------------------------------------------


def test_core_case_whole_prism():
    g = cycle_graph(5)
    rep = compute_core(complementary_prism(g))
    case = classify_core_case(g, rep)
    assert case.case == "I_core"


def test_core_case_inside_first_side():
    # prism of K3: the only triangles are the base side, so the core (a
    # triangle) must sit inside it
    g = complete_graph(3)
    rep = compute_core(complementary_prism(g))
    case = classify_core_case(g, rep)
    assert case.case == "II_in_W1"


def test_core_case_inside_second_side():
    g = empty_graph(3)
    rep = compute_core(complementary_prism(g))
    case = classify_core_case(g, rep)
    assert case.case == "III_in_W2"


# a triangle and a pentagon, side by side
TRIANGLE_AND_PENTAGON = build_graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])


def test_core_case_partition_iv():
    g = TRIANGLE_AND_PENTAGON
    rep = compute_core(complementary_prism(g))
    case = classify_core_case(g, rep)
    assert case.case == "IV_partition"
    assert set(case.V1) | set(case.V2) | set(case.V3) == set(range(g.n))


def test_core_case_partition_v():
    g = TRIANGLE_AND_PENTAGON.complement()
    rep = compute_core(complementary_prism(g))
    case = classify_core_case(g, rep)
    assert case.case == "V_partition"


def test_core_case_rejects_tiny_base():
    g = complete_graph(2)
    rep = compute_core(complementary_prism(g))
    with pytest.raises(ValueError):
        classify_core_case(g, rep)


def test_core_case_rejects_unknown_status():
    g = cycle_graph(5)
    rep = compute_core(complementary_prism(g))
    bad = CoreReport(
        core_vertices=rep.core_vertices,
        retraction=rep.retraction,
        is_core_itself=rep.is_core_itself,
        status="unknown",
    )
    with pytest.raises(ValueError):
        classify_core_case(g, bad)


def test_core_case_rejects_non_retraction_report():
    g = cycle_graph(5)
    n = 2 * g.n
    fake = CoreReport(
        core_vertices=(0, 1),
        retraction=tuple([0] * n),
        is_core_itself=False,
        status="ok",
    )
    with pytest.raises((ValueError, CoreCaseViolation)):
        classify_core_case(g, fake)


# -- lexicographic product detection --------------------------------------------


def test_lex_products_are_recognized():
    assert not_lex_product_check(lexicographic_product(cycle_graph(5), complete_graph(2))) is False
    assert not_lex_product_check(lexicographic_product(complete_graph(2), cycle_graph(5))) is False
    assert not_lex_product_check(lexicographic_product(path_graph(3), complete_graph(2))) is False
    assert not_lex_product_check(complete_graph(4)) is False  # K2[K2]
    assert not_lex_product_check(cycle_graph(4)) is False  # K2[empty 2]


def test_non_products_are_recognized():
    assert not_lex_product_check(cycle_graph(5)) is True
    assert not_lex_product_check(cycle_graph(6)) is True
    assert not_lex_product_check(petersen_graph()) is True


def test_lex_check_gives_up_above_sixteen_vertices():
    assert not_lex_product_check(cycle_graph(18)) is None


def test_prisms_of_small_graphs_are_never_lex_products():
    for n in range(1, 5):
        for g in all_graphs(n):
            assert not_lex_product_check(complementary_prism(g)) is True


def reference_is_lex_product(g, n1, n2):
    """The exhaustive search the module closure replaced: every (n2-1)-subset
    beside the least free vertex, kept if no outside vertex splits it."""

    def is_module(block):
        return all(g.adj[w] & block in (0, block) for w in range(g.n) if not block >> w & 1)

    def rec(unassigned, first):
        if not unassigned:
            return True
        v = (unassigned & -unassigned).bit_length() - 1
        rest = [w for w in range(g.n) if unassigned >> w & 1 and w != v]
        for others in itertools.combinations(rest, n2 - 1):
            block = 1 << v | sum(1 << w for w in others)
            if not is_module(block):
                continue
            induced = g.induced([v, *others])
            if first is None or find_isomorphisms(first, induced, limit=1):
                if rec(unassigned & ~block, first or induced):
                    return True
        return False

    return rec((1 << g.n) - 1, None)


def divisor_splits(N):
    return [(n1, N // n1) for n1 in range(2, N // 2 + 1) if N % n1 == 0]


def random_graph(rng, n, p=0.5):
    return build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def test_module_closure_search_agrees_with_the_exhaustive_reference():
    rng = random.Random(2201)
    graphs = [complementary_prism(random_graph(rng, rng.randint(1, 8))) for _ in range(120)]
    for _ in range(120):
        outer = random_graph(rng, rng.randint(2, 5), rng.random())
        inner = random_graph(rng, rng.randint(2, 16 // outer.n), rng.random())
        product = lexicographic_product(outer, inner)
        perm = list(range(product.n))
        rng.shuffle(perm)
        graphs.append(product.relabel(perm))
    graphs += [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(120)]
    answers = []
    for g in graphs:
        for n1, n2 in divisor_splits(g.n):
            answer = prisms._is_lex_product(g, n1, n2)
            assert answer == reference_is_lex_product(g, n1, n2), (g.adj, n1, n2)
            answers.append(answer)
    assert True in answers and False in answers


def test_prime_prisms_cost_one_closure_per_pair_and_no_block_test(monkeypatch):
    closure, is_lex = prisms._module_closure, prisms._is_lex_product
    closures, costs, iso_calls = [0], [], []

    def counted_closure(g, mask):
        closures[0] += 1
        return closure(g, mask)

    def counted_is_lex(g, n1, n2):
        closures[0] = 0
        answer = is_lex(g, n1, n2)
        costs.append((g.n, closures[0]))
        return answer

    monkeypatch.setattr(prisms, "_module_closure", counted_closure)
    monkeypatch.setattr(prisms, "_is_lex_product", counted_is_lex)
    monkeypatch.setattr(prisms, "find_isomorphisms", lambda *a, **k: iso_calls.append(a))
    for n in range(2, 6):
        for g in all_graphs(n):
            assert not_lex_product_check(complementary_prism(g)) is True
    assert costs and all(cost <= N - 1 for N, cost in costs)
    assert iso_calls == []


def test_module_closure_search_decides_large_graphs():
    prism = complementary_prism(paley_graph(29))
    assert not any(prisms._is_lex_product(prism, n1, n2) for n1, n2 in divisor_splits(58))
    product = lexicographic_product(paley_graph(9), cycle_graph(5))
    found = [split for split in divisor_splits(45) if prisms._is_lex_product(product, *split)]
    assert found == [(9, 5)]
