import itertools

import pytest

from prismatic.graphs import (
    build_graph,
    complementary_prism,
    complete_graph,
    cycle_graph,
    empty_graph,
    lexicographic_product,
    path_graph,
    prism_index,
    star_graph,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_basic_accessors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.degrees() == [1, 2, 2, 1]
    assert g.neighbors(1) == [0, 2]
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_construction_validation():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])


def test_complement_involution():
    for g in all_graphs(4):
        assert g.complement().complement().adj == g.adj


def test_standard_graphs():
    assert cycle_graph(5).degrees() == [2] * 5
    assert complete_graph(4).edge_count() == 6
    assert path_graph(4).degrees() == [1, 2, 2, 1]
    assert star_graph(4).degrees() == [3, 1, 1, 1]
    assert empty_graph(3).edge_count() == 0


def test_induced_uses_sorted_vertex_order():
    g = build_graph(5, [(0, 2), (2, 4), (0, 4)])
    h = g.induced([4, 0, 2])
    # sorted order (0, 2, 4) becomes (0, 1, 2)
    assert h.n == 3 and h.edge_count() == 3


def test_connectivity_and_diameter():
    assert cycle_graph(6).diameter() == 3
    assert path_graph(5).diameter() == 4
    assert not build_graph(4, [(0, 1), (2, 3)]).is_connected()
    assert complete_graph(5).diameter() == 1


def test_component_mask_stays_within_the_mask():
    p5 = path_graph(5)
    assert p5.component_mask(2, 0b11111) == 0b11111
    # vertex 3 is outside the mask, so 4 is cut off; start is always in
    assert p5.component_mask(2, 0b10111) == 0b00111
    assert p5.component_mask(2, 0) == 0b00100


def test_repr_gives_the_order_and_size():
    assert repr(cycle_graph(5)) == "<graph n=5 m=5>"


def test_prism_indexing_round_trip():
    n = 7
    for v in range(n):
        for side in (1, 2):
            i = prism_index(v, side, n)
            assert (i % n, 1 + i // n) == (v, side)


def test_prism_edge_count_is_binomial():
    # |E(G)| + |E(complement)| + n matching edges = C(n + 1, 2)
    for n in range(1, 6):
        for g in all_graphs(n):
            pg = complementary_prism(g)
            assert pg.n == 2 * n
            assert pg.edge_count() == (n + 1) * n // 2


def test_prism_sides_and_matching():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
    pg = complementary_prism(g)
    n = 4
    for v in range(n):
        for u in range(v + 1, n):
            assert pg.has_edge(v, u) == g.has_edge(v, u)
            assert pg.has_edge(n + v, n + u) == (not g.has_edge(v, u))
    for v in range(n):
        for u in range(n):
            assert pg.has_edge(v, n + u) == (v == u)


def triangles(g):
    return sum(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


def test_prism_triangles_stay_in_one_side():
    # matching edges are in no triangle, so triangle counts add up
    for g in all_graphs(5):
        pg = complementary_prism(g)
        assert triangles(pg) == triangles(g) + triangles(g.complement())


def test_prism_diameter_trichotomy():
    # diameter 1 iff the base is K1, else 2 or 3; 2 exactly when both the
    # base and its complement have diameter 2
    for n in range(1, 6):
        for g in all_graphs(n):
            d = complementary_prism(g).diameter()
            if n == 1:
                assert d == 1
                continue
            assert d in (2, 3)
            both_two = (
                g.is_connected()
                and g.complement().is_connected()
                and g.diameter() == 2
                and g.complement().diameter() == 2
            )
            assert (d == 2) == both_two


def test_prism_of_single_vertex_is_k2():
    pg = complementary_prism(build_graph(1, []))
    assert pg.n == 2 and pg.edge_count() == 1


def test_lexicographic_product_shape():
    c5, k2 = cycle_graph(5), complete_graph(2)
    lp = lexicographic_product(c5, k2)
    assert lp.n == 10
    # fiber pairs are adjacent; cross edges follow the first coordinate
    for a in range(5):
        assert lp.has_edge(2 * a, 2 * a + 1)
        for b in range(5):
            if a != b:
                expected = c5.has_edge(a, b)
                for i in (0, 1):
                    for j in (0, 1):
                        assert lp.has_edge(2 * a + i, 2 * b + j) == expected


def test_lexicographic_product_edge_count():
    g1, g2 = path_graph(3), cycle_graph(4)
    lp = lexicographic_product(g1, g2)
    n2 = g2.n
    assert lp.edge_count() == g1.edge_count() * n2 * n2 + g1.n * g2.edge_count()
