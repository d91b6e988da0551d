"""Label invariance: every invariant the CLI reports for a graph must be the
same for any relabelling of it.  Each test draws seeded random graphs and
seeded vertex permutations; a value that changes names both in the failure."""

import random

import pytest

from prismatic.graphs import build_graph, complementary_prism
from prismatic.morphisms import automorphism_group, compute_core
from prismatic.prisms import structured_prism_aut
from prismatic.spectral import numeric_spectrum
from prismatic.structural import invariants


def random_graph(rng, n):
    density = rng.uniform(0.1, 0.9)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def relabelled_pairs(seed, count, max_n, relabellings=2):
    """``count`` seeded random graphs on 1..max_n vertices, each with
    ``relabellings`` seeded random relabellings of it."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randint(1, max_n))
        for _ in range(relabellings):
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield g, perm, g.relabel(perm)


def test_alpha_omega_chi_kappa_invariant_under_relabelling():
    for g, perm, h in relabelled_pairs(701, 60, 9):
        a, b = invariants(g), invariants(h)
        assert (a.alpha, a.omega, a.chi, a.kappa) == (b.alpha, b.omega, b.chi, b.kappa), (g.adj, perm)
        assert a.exact and b.exact


def test_numeric_spectrum_invariant_under_relabelling():
    for g, perm, h in relabelled_pairs(702, 60, 12):
        a = numeric_spectrum(g).eigenvalues
        b = numeric_spectrum(h).eigenvalues
        assert b == pytest.approx(a, abs=1e-9), (g.adj, perm)


def test_aut_order_invariant_under_relabelling():
    for g, perm, h in relabelled_pairs(703, 60, 9):
        assert automorphism_group(g).order == automorphism_group(h).order, (g.adj, perm)
        prism_g, prism_h = complementary_prism(g), complementary_prism(h)
        assert automorphism_group(prism_g).order == automorphism_group(prism_h).order, (g.adj, perm)


def test_ratio_class_invariant_under_relabelling():
    for g, perm, h in relabelled_pairs(704, 60, 8):
        a, b = structured_prism_aut(g).ratio, structured_prism_aut(h).ratio
        assert (a.value, a.structure_label) == (b.value, b.structure_label), (g.adj, perm)


def test_core_size_invariant_under_relabelling():
    for g, perm, h in relabelled_pairs(705, 40, 8):
        assert len(compute_core(g).core_vertices) == len(compute_core(h).core_vertices), (g.adj, perm)
        prism_g, prism_h = complementary_prism(g), complementary_prism(h)
        a, b = compute_core(prism_g), compute_core(prism_h)
        assert len(a.core_vertices) == len(b.core_vertices), (g.adj, perm)
        assert a.is_core_itself == b.is_core_itself
