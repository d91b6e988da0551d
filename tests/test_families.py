import hashlib
import itertools

import pytest

from prismatic.families import (
    apex_pair_graph,
    cay_f49xf4,
    colex_subsets,
    exa1_antimorphism,
    exa1_graph,
    family_graph,
    figure_f9,
    kneser_graph,
    mysterious505,
    named_graph,
    paley_graph,
    pendant_pair_graph,
    petersen_graph,
)
from prismatic.fields import get_field
from prismatic.graphs import build_graph, complete_graph, cycle_graph, empty_graph, path_graph
from prismatic.morphisms import (
    antimorphism_facts,
    find_antimorphisms,
    find_isomorphisms,
    is_antimorphism_map,
)


def isomorphic(a, b):
    return bool(find_isomorphisms(a, b, limit=1))


# -- the two four-outer-vertex families --------------------------------------


@pytest.mark.parametrize(
    "inner",
    [empty_graph(0), empty_graph(1), empty_graph(3), path_graph(3), cycle_graph(5)],
)
def test_pendant_pair_degrees(inner):
    g = pendant_pair_graph(inner)
    L = inner.n
    y, v, u, z = range(L, L + 4)
    degs = g.degrees()
    assert degs[y] == 1 + L and degs[z] == 1 + L
    assert degs[v] == 2 and degs[u] == 2
    for w in range(L):
        assert degs[w] == inner.degrees()[w] + 2
        assert g.has_edge(w, y) and g.has_edge(w, z)
        assert not g.has_edge(w, v) and not g.has_edge(w, u)


@pytest.mark.parametrize(
    "inner",
    [empty_graph(0), empty_graph(1), empty_graph(3), path_graph(3), cycle_graph(5)],
)
def test_apex_pair_degrees(inner):
    g = apex_pair_graph(inner)
    L = inner.n
    y, v, u, z = range(L, L + 4)
    degs = g.degrees()
    assert degs[y] == 1 and degs[z] == 1
    assert degs[v] == 2 + L and degs[u] == 2 + L
    for w in range(L):
        assert degs[w] == inner.degrees()[w] + 2
        assert g.has_edge(w, v) and g.has_edge(w, u)
        assert not g.has_edge(w, y) and not g.has_edge(w, z)


def test_family_outer_path():
    for kind in ("C5", "A"):
        g = family_graph(kind, path_graph(3))
        y, v, u, z = range(3, 7)  # after the three inner vertices
        assert g.has_edge(y, v) and g.has_edge(v, u) and g.has_edge(u, z)
        assert not g.has_edge(y, z) and not g.has_edge(y, u) and not g.has_edge(v, z)


def test_empty_inner_gives_path4_for_both_kinds():
    p4 = path_graph(4)
    assert isomorphic(pendant_pair_graph(empty_graph(0)), p4)
    assert isomorphic(apex_pair_graph(empty_graph(0)), p4)


def test_single_vertex_pendant_inner_gives_pentagon():
    assert isomorphic(pendant_pair_graph(empty_graph(1)), cycle_graph(5))


def test_unknown_family_kind():
    with pytest.raises(ValueError):
        family_graph("B", empty_graph(1))


# -- Paley graphs -------------------------------------------------------------


def test_paley_5_is_pentagon():
    assert isomorphic(paley_graph(5), cycle_graph(5))


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_paley_regular_self_complementary(q):
    g = paley_graph(q)
    assert g.n == q
    assert g.degrees() == [(q - 1) // 2] * q
    assert isomorphic(g, g.complement())


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29, 37, 41, 49])
def test_paley_graph_is_the_pairwise_difference_definition(q):
    f = get_field(q)
    squares = {f.mul(a, a) for a in range(1, q)}
    g = paley_graph(q)
    for i in range(q):
        for j in range(q):
            assert g.has_edge(i, j) == (f.sub(i, j) in squares)


@pytest.mark.parametrize(
    "q", [5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 89, 97, 101, 1009]
)
def test_paley_rows_are_the_element_wise_translates_of_the_squares(q):
    f = get_field(q)
    squares = f.nonzero_squares()
    rows = [sum(1 << f.add(a, s) for s in squares) for a in range(q)]
    assert list(paley_graph(q).adj) == rows


def test_paley_needs_q_1_mod_4():
    with pytest.raises(ValueError):
        paley_graph(7)


# -- Kneser graphs ------------------------------------------------------------


def test_colex_subsets_order():
    subs = colex_subsets(5, 2)
    assert len(subs) == 10
    assert subs[0] == frozenset({1, 2})
    assert subs[-1] == frozenset({4, 5})
    # colex: compare largest differing element
    for a, b in itertools.combinations(range(10), 2):
        assert max(subs[a] ^ subs[b]) in subs[b]


def test_kneser_5_2_is_petersen():
    assert kneser_graph(5, 2).adj == petersen_graph().adj
    p = petersen_graph()
    assert p.n == 10 and p.degrees() == [3] * 10
    assert p.diameter() == 2


def test_kneser_adjacency_is_disjointness():
    for n, r in [(6, 2), (5, 2), (7, 3), (10, 4)]:
        g = kneser_graph(n, r)
        subs = colex_subsets(n, r)
        for i in range(g.n):
            for j in range(g.n):
                assert g.has_edge(i, j) == (not subs[i] & subs[j])


def test_kneser_10_4_shape():
    g = kneser_graph(10, 4)
    assert g.n == 210
    assert g.degrees() == [15] * 210  # C(6, 4) disjoint companions


# -- nine-vertex self-complementary graphs ------------------------------------


# The adjacency of each drawing: for v = 0..8 in turn, the neighbours of v
# above v ("-" for none).
FIGURE_F9_UPPER_NEIGHBOURS = {
    1: "1234 256 78 457 68 67 8 8 -",
    2: "1234 258 67 456 57 8 78 8 -",
    3: "1234 256 56 478 78 78 78 - -",
    4: "1234 247 35 68 56 78 78 8 -",
}


def test_figure_f9_matches_fixtures():
    for i, rows in FIGURE_F9_UPPER_NEIGHBOURS.items():
        edges = [
            (v, int(u)) for v, row in enumerate(rows.split()) for u in row if u != "-"
        ]
        assert figure_f9(i) == build_graph(9, edges)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_figure_f9_regular_self_complementary(i):
    g = figure_f9(i)
    assert g.n == 9 and g.degrees() == [4] * 9
    assert isomorphic(g, g.complement())


def test_figure_f9_1_is_paley_9():
    assert isomorphic(figure_f9(1), paley_graph(9))


def test_figure_f9_pairwise_distinct():
    graphs = [figure_f9(i) for i in range(1, 5)]
    for a, b in itertools.combinations(range(4), 2):
        assert not isomorphic(graphs[a], graphs[b])


def test_figure_f9_bad_index():
    with pytest.raises(ValueError):
        figure_f9(5)


def test_f10_fixture_is_a_non_paley_self_complementary_graph():
    g = exa1_graph()
    assert g.n == 13 and g.degrees() == [6] * 13
    sigma = find_antimorphisms(g, limit=1)
    assert sigma
    order, fixed = antimorphism_facts(sigma[0], g)
    assert order == 4 and fixed == (0,)
    assert not isomorphic(g, paley_graph(13))


# -- the 13-vertex worked example ---------------------------------------------


def test_exa1_shape_and_antimorphism():
    g = exa1_graph()
    assert g.n == 13 and g.degrees() == [6] * 13
    sigma = exa1_antimorphism()
    assert is_antimorphism_map(g, sigma)
    order, fixed = antimorphism_facts(sigma, g)
    assert order == 4 and fixed == (0,)


# -- Cayley graph on GF(49) x GF(4) -------------------------------------------


def test_cay_f49xf4_shape():
    g = cay_f49xf4()
    assert g.n == 196
    assert g.degrees() == [96] * 196
    # second coordinates of the connection set generate only the GF(2)
    # subfield, so the graph splits into exactly two components of 98
    seen = [False] * g.n
    sizes = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, size = [s], 0
        seen[s] = True
        while stack:
            x = stack.pop()
            size += 1
            for y in g.neighbors(x):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        sizes.append(size)
    assert sizes == [98, 98]


# -- the 505-vertex example ---------------------------------------------------


def test_mysterious505_layout():
    m = mysterious505()
    g = m.graph
    assert g.n == 505
    assert g.degrees() == [194] * 505
    assert g.is_connected() and g.complement().is_connected()
    assert len(m.v) == 99 and len(m.kneser) == 210 and len(m.w) == 196

    # v-block induces an empty graph
    vb = g.induced(m.v)
    assert vb.edge_count() == 0

    # kneser block induces the complement of K(10,4) minus one edge
    kb = g.induced(m.kneser)
    kc = kneser_graph(10, 4).complement()
    subs = colex_subsets(10, 4)
    i1 = subs.index(frozenset({1, 2, 3, 4}))
    i2 = subs.index(frozenset({2, 3, 4, 5}))
    assert kb.edge_count() == kc.edge_count() - 1
    diff = [
        (a, b)
        for a in range(210)
        for b in range(a + 1, 210)
        if kb.has_edge(a, b) != kc.has_edge(a, b)
    ]
    assert diff == [(min(i1, i2), max(i1, i2))]
    assert not g.has_edge(m.u1, m.u2)

    # w-block induces the Cayley graph, in the layout's own vertex order:
    # w_i ~ w_j iff the pair difference (x, y) has x != 0 and y in {0, 1}
    f49, f4 = get_field(49), get_field(4)
    wb = g.induced(m.w)
    for i in range(196):
        xi, yi = m.w_pairs[i]
        for j in range(i + 1, 196):
            xj, yj = m.w_pairs[j]
            dx, dy = f49.sub(xi, xj), f4.sub(yi, yj)
            expected = dx != 0 and dy in (0, 1)
            assert wb.has_edge(i, j) == expected
    # the pairs are the field integers, the special pairs (0, 1) and (0, i) last
    assert sorted(m.w_pairs) == [(x, y) for x in range(49) for y in range(4)]
    assert m.w_pairs[194:] == ((0, 1), (0, 2))


def test_cayley_tables_match_field_arithmetic():
    # the w-block of mysterious505 is checked pair by pair in the layout test
    f4 = get_field(4)
    pairs = [(x, y) for y in range(4) for x in range(49)]
    expected = {
        (i, j)
        for i, j in itertools.combinations(range(196), 2)
        if pairs[i][0] != pairs[j][0] and f4.sub(pairs[i][1], pairs[j][1]) in (0, 1)
    }
    assert set(cay_f49xf4().edges()) == expected
    # the whole 505-vertex edge set, as the element-by-element construction built it
    edges = sorted(mysterious505().graph.edges())
    digest = hashlib.sha256(repr(edges).encode()).hexdigest()
    assert digest == "3590956625a5054d6a997ccb54ca20e362a34e8a350679ecd95ac9945c6e1f8d"


# -- name grammar -------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, n",
    [
        ("petersen", 10),
        ("exa1", 13),
        ("cycle:5", 5),
        ("path:4", 4),
        ("complete:6", 6),
        ("empty:3", 3),
        ("star:4", 4),
        ("paley:9", 9),
        ("kneser:5:2", 10),
        ("figure_f9:2", 9),
    ],
)
def test_named_graph_sizes(spec, n):
    assert named_graph(spec).n == n


def test_named_graph_matches_constructors():
    assert named_graph("cycle:5").adj == cycle_graph(5).adj
    assert named_graph("complete:4").adj == complete_graph(4).adj
    assert named_graph("paley:13").adj == paley_graph(13).adj
    assert named_graph("kneser:5:2").adj == petersen_graph().adj


@pytest.mark.parametrize(
    "spec",
    ["nope", "cycle", "cycle:2,3", "paley:7", "kneser:5", "cycle:x", "figure_f9:9"],
)
def test_named_graph_rejects(spec):
    with pytest.raises(ValueError):
        named_graph(spec)
