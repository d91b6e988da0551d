"""Validation at the input boundary.

``Graph(n, adj)`` checks every row; the constructors that build rows
symmetric and loop-free by design skip that check.  These tests pin both
halves: the strict entry point still rejects bad rows, and every unchecked
constructor's output passes the strict check.
"""

import itertools
import random

import pytest

from prismatic.families import family_graph, named_graph
from prismatic.graphio import parse_graph6, write_graph6
from prismatic.graphs import (
    Graph,
    build_graph,
    complementary_prism,
    lexicographic_product,
)


def strict(g):
    """Rebuild g through the checking constructor; it raises on a bad row."""
    again = Graph(g.n, list(g.adj))
    assert again.adj == g.adj
    return again


def random_graph(rng, n, density):
    pairs = itertools.combinations(range(n), 2)
    return build_graph(n, [p for p in pairs if rng.random() < density])


NAMED = [
    "petersen",
    "exa1",
    "cay_f49xf4",
    "cycle:5",
    "path:4",
    "complete:6",
    "empty:3",
    "star:4",
    "paley:13",
    "paley:25",
    "paley:49",
    "kneser:6:2",
    "figure_f9:1",
    "figure_f9:2",
    "figure_f9:3",
    "figure_f9:4",
]


def bases():
    rng = random.Random(1201)
    graphs = [named_graph(spec) for spec in NAMED]
    graphs += [random_graph(rng, n, d) for n in (0, 1, 2, 7, 12, 30) for d in (0.0, 0.3, 0.7, 1.0)]
    graphs += [family_graph(kind, named_graph("cycle:5")) for kind in ("C5", "A")]
    return graphs


def test_trusted_constructors_pass_the_strict_check():
    rng = random.Random(1202)
    small = [g for g in bases() if g.n <= 13]
    for g in bases():
        strict(g)
        strict(g.complement())
        strict(g.induced(rng.sample(range(g.n), rng.randint(0, g.n))))
        perm = list(range(g.n))
        rng.shuffle(perm)
        strict(g.relabel(perm))
        if g.n:
            strict(complementary_prism(g))
        assert strict(parse_graph6(write_graph6(g))).adj == g.adj
        if g.n <= 13:
            strict(lexicographic_product(g, rng.choice(small)))


def test_trusted_constructors_on_the_505_vertex_graph():
    g = named_graph("mysterious505")
    strict(g)
    prism = strict(complementary_prism(g))
    strict(prism.induced(range(0, prism.n, 3)))


def test_graph_rejects_bad_rows():
    with pytest.raises(ValueError, match="asymmetric adjacency at \\(0, 1\\)"):
        Graph(3, [0b010, 0, 0])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(2, [0, 0b10])
    with pytest.raises(ValueError, match="row 0 references vertices >= 2"):
        Graph(2, [0b100, 0])
    with pytest.raises(ValueError, match="adjacency has 1 rows for 2 vertices"):
        Graph(2, [0])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1, [])


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1]])
def test_relabel_rejects_a_non_bijection(perm):
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not a permutation"):
        g.relabel(perm)


@pytest.mark.parametrize("keep", [[0, 3], [-1, 0]])
def test_induced_rejects_vertices_out_of_range(keep):
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="must lie in range"):
        g.induced(keep)


def test_unchecked_constructors_keep_the_size_check():
    with pytest.raises(ValueError, match="nonnegative"):
        named_graph("empty:-1")
