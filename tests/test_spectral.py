import math
import random

import numpy as np
import pytest

from prismatic.families import exa1_graph, figure_f9, kneser_graph, paley_graph, petersen_graph
from prismatic.graphs import (
    build_graph,
    complementary_prism,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from prismatic.spectral import (
    adjacency_matrix,
    SrgParams,
    numeric_spectrum,
    prism_spectrum_closed_form,
    srg_analysis,
    srg_params,
    theta_bounds,
)
from prismatic.morphisms import is_self_complementary
from prismatic.structural import hamiltonian

GOLDEN = math.sqrt(5)


# -- numeric eigensolver --------------------------------------------------------


def test_spectrum_of_small_graphs():
    assert numeric_spectrum(complete_graph(1)).eigenvalues == (0.0,)
    k3 = numeric_spectrum(complete_graph(3)).eigenvalues
    assert max(abs(a - b) for a, b in zip(k3, (2, -1, -1))) < 1e-12
    c4 = numeric_spectrum(cycle_graph(4)).eigenvalues
    assert max(abs(a - b) for a, b in zip(c4, (2, 0, 0, -2))) < 1e-12
    c5 = numeric_spectrum(cycle_graph(5)).eigenvalues
    expected = (2, (GOLDEN - 1) / 2, (GOLDEN - 1) / 2, -(GOLDEN + 1) / 2, -(GOLDEN + 1) / 2)
    assert max(abs(a - b) for a, b in zip(c5, expected)) < 1e-12


def test_spectrum_trace_identities():
    for g in (cycle_graph(6), petersen_graph(), paley_graph(13), star_graph(5)):
        eigs = numeric_spectrum(g).eigenvalues
        assert abs(sum(eigs)) < 1e-9  # trace of A
        assert abs(sum(x * x for x in eigs) - 2 * g.edge_count()) < 1e-9


def random_graph(rng, n):
    density = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return build_graph(n, edges)


def test_spectrum_power_sums_match_exact_traces_on_random_graphs():
    # Newton's identities tie the eigenvalues to the closed-walk counts:
    # sum(l**p) == trace(A**p), here with exact int64 matrix powers, so the
    # oracle shares no code with the eigensolver
    rng = random.Random(20261018)
    for _ in range(100):
        base = random_graph(rng, rng.randint(1, 16))
        for g in (base, complementary_prism(base)):
            eigs = np.array(numeric_spectrum(g).eigenvalues)
            assert len(eigs) == g.n
            assert all(a >= b for a, b in zip(eigs, eigs[1:]))
            a = adjacency_matrix(g)
            for p in range(1, 5):
                trace = int(np.trace(np.linalg.matrix_power(a, p)))
                scale = g.n * max(1, max(g.degrees())) ** p  # bounds sum(|l|**p)
                assert abs(float((eigs**p).sum()) - trace) <= 1e-8 * scale, (g.edges(), p)
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = numeric_spectrum(g.relabel(perm)).eigenvalues
            assert max(abs(x - y) for x, y in zip(eigs, relabelled)) < 1e-9, g.edges()


def test_spectrum_is_sorted_descending():
    eigs = numeric_spectrum(paley_graph(9)).eigenvalues
    assert all(a >= b for a, b in zip(eigs, eigs[1:]))


def test_multiplicity_pairs():
    pairs = numeric_spectrum(petersen_graph()).multiplicity_pairs()
    assert [(round(v), m) for v, m in pairs] == [(3, 1), (1, 5), (-2, 4)]


# -- closed form for prism spectra -----------------------------------------------


CLOSED_FORM_BASES = [
    complete_graph(1),
    complete_graph(2),
    complete_graph(5),
    cycle_graph(4),
    cycle_graph(5),
    cycle_graph(7),
    paley_graph(9),
    paley_graph(13),
    figure_f9(1),
    figure_f9(2),
    figure_f9(3),
    figure_f9(4),
    petersen_graph(),
    # disconnected regular bases: 2K2, 2C5 and the empty graph on 3 vertices
    build_graph(4, [(0, 1), (2, 3)]),
    build_graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]),
    empty_graph(3),
]


@pytest.mark.parametrize("idx", range(len(CLOSED_FORM_BASES)))
def test_closed_form_matches_numeric(idx):
    g = CLOSED_FORM_BASES[idx]
    closed = prism_spectrum_closed_form(g)
    numeric = numeric_spectrum(complementary_prism(g))
    assert closed.n == numeric.n == 2 * g.n
    diffs = [abs(a - b) for a, b in zip(closed.eigenvalues, numeric.eigenvalues)]
    assert max(diffs) < 1e-9
    assert sum(m for _, m in closed.multiplicity_pairs()) == 2 * g.n


def test_pentagon_prism_spectrum_is_petersen_spectrum():
    pairs = prism_spectrum_closed_form(cycle_graph(5)).multiplicity_pairs()
    assert [(round(v), m) for v, m in pairs] == [(3, 1), (1, 5), (-2, 4)]


def test_closed_form_requires_connected_regular():
    # Only regularity is required: disconnected regular bases are in
    # CLOSED_FORM_BASES.
    with pytest.raises(ValueError, match="regular"):
        prism_spectrum_closed_form(path_graph(4))
    with pytest.raises(ValueError, match="empty vertex set"):
        prism_spectrum_closed_form(empty_graph(0))


def prism_extreme_eigenvalues(g):
    """Largest and smallest prism eigenvalue of a connected k-regular g.

    The maximum always comes from the regular branch; the minimum from
    whichever of l2, ln has larger |2l + 1| (for K1 there is no second
    eigenvalue and the regular branch supplies both extremes).
    """
    n, k = g.n, g.degrees()[0]
    disc = math.sqrt((n - 1 - 2 * k) ** 2 + 4)
    top = (n - 1 + disc) / 2
    if n == 1:
        return top, (n - 1 - disc) / 2
    base = numeric_spectrum(g).eigenvalues
    return top, min((-1 - math.sqrt((2 * lam + 1) ** 2 + 4)) / 2 for lam in (base[1], base[-1]))


def test_extreme_eigenvalues():
    assert prism_extreme_eigenvalues(complete_graph(1)) == (1.0, -1.0)
    top, bottom = prism_extreme_eigenvalues(cycle_graph(5))
    assert abs(top - 3) < 1e-9 and abs(bottom + 2) < 1e-9
    for g in (complete_graph(1), cycle_graph(5), paley_graph(13)):
        top, bottom = prism_extreme_eigenvalues(g)
        closed = prism_spectrum_closed_form(g).eigenvalues
        numeric = numeric_spectrum(complementary_prism(g)).eigenvalues
        for eigs in (closed, numeric):
            assert abs(top - eigs[0]) < 1e-9 and abs(bottom - eigs[-1]) < 1e-9


# -- strong regularity and 1-walk-regularity --------------------------------------


def test_srg_params_known_graphs():
    assert srg_params(paley_graph(9)) == SrgParams(9, 4, 1, 2)
    assert srg_params(petersen_graph()) == SrgParams(10, 3, 0, 1)
    assert srg_params(cycle_graph(5)) == SrgParams(5, 2, 0, 1)
    assert srg_params(cycle_graph(4)) == SrgParams(4, 2, 0, 2)
    assert srg_params(path_graph(4)) is None
    assert srg_params(cycle_graph(6)) is None
    # complete and empty graphs are conventionally excluded
    assert srg_params(complete_graph(4)) is None
    assert srg_params(empty_graph(4)) is None


def test_srg_implies_one_walk_regular():
    for g in (paley_graph(9), petersen_graph(), cycle_graph(5), paley_graph(13)):
        report = srg_analysis(g)
        assert report.srg_params is not None
        assert report.one_walk_regular is True


def test_self_complementary_srg_eigenvalue_triple():
    report = srg_analysis(figure_f9(1))
    assert report.srg_params == SrgParams(9, 4, 1, 2)
    assert report.srg_sc_eigen == (4.0, 1.0, -2.0)
    report13 = srg_analysis(paley_graph(13))
    assert report13.srg_sc_eigen is not None
    lam = (math.sqrt(13) - 1) / 2
    assert abs(report13.srg_sc_eigen[1] - lam) < 1e-12


def test_non_srg_figure_f9_walk_regularity_witnesses():
    expected = {
        2: (4, ((0, 38), (1, 36)), (((0, 1), 1), ((3, 4), 2))),
        3: (3, ((0, 4), (1, 6)), (((0, 1), 1), ((1, 2), 3))),
        4: (3, ((0, 6), (1, 4)), (((0, 1), 2), ((0, 3), 1))),
    }
    for i, (power, entries, edge_entries) in expected.items():
        report = srg_analysis(figure_f9(i))
        assert report.srg_params is None
        assert report.one_walk_regular is False
        w = report.witness
        assert w.kind == "diagonal"
        assert w.power == power
        assert w.entries == entries
        # the edge condition already fails at the square
        assert report.edge_witness is not None
        assert report.edge_witness.power == 2
        assert report.edge_witness.entries == edge_entries


def test_edge_kind_witness_on_triangular_prism():
    # vertex-transitive, so diagonals agree at every power; triangle edges
    # and matching edges have different common-neighbour counts
    tp = build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    report = srg_analysis(tp)
    w = report.witness
    assert w.kind == "edge" and w.power == 2
    assert w.entries == (((0, 1), 1), ((0, 3), 0))
    assert report.edge_witness is w
    assert report.one_walk_regular is False


def test_even_cycle_is_one_walk_regular_without_being_srg():
    report = srg_analysis(cycle_graph(6))
    assert report.srg_params is None
    assert report.one_walk_regular is True


def test_walk_regularity_scan_past_int64():
    # K(7,3) is not strongly regular, so srg_analysis scans A^2 .. A^35; its
    # 4-regular powers grow like 4^i, and from A^31 on the next product could
    # overflow int64, so the scan finishes in Python integers.  Arc-transitive
    # graphs are 1-walk-regular, so no power yields a witness.
    report = srg_analysis(kneser_graph(7, 3))
    assert report.srg_params is None
    assert report.witness is None and report.edge_witness is None


# -- theta bounds -----------------------------------------------------------------


def test_theta_pentagon_is_sqrt5():
    upper, lower = theta_bounds(cycle_graph(5))
    assert abs(upper - GOLDEN) < 1e-9
    # C5 is self-complementary, so the complement bound is also sqrt(5)
    assert abs(lower - GOLDEN) < 1e-9


def test_theta_extremes():
    upper, lower = theta_bounds(complete_graph(5))
    assert abs(upper - 1) < 1e-9 and abs(lower - 5) < 1e-9
    assert theta_bounds(empty_graph(7)) == (7.0, 1.0)


def test_theta_requires_regular():
    with pytest.raises(ValueError):
        theta_bounds(path_graph(4))
    with pytest.raises(ValueError):
        theta_bounds(empty_graph(0))


# -- the strongly regular inequality -----------------------------------------------


@pytest.mark.parametrize("n", [5, 9, 13, 17, 25, 10**6 + 1])
def test_strg_inequality_fails_for_all_candidates(n):
    # n + 1 <= (sqrt(n) - 1)(sqrt(n + 4) + 1) fails, decided exactly: at scale
    # m, isqrt(k m^2) + 1 > m sqrt(k), so (s - m)(t + m) bounds m^2 times the right side
    m = 10**12
    s = math.isqrt(n * m * m) + 1
    t = math.isqrt((n + 4) * m * m) + 1
    assert (n + 1) * m * m > (s - m) * (t + m)


# -- eigenvalue bounds for regular self-complementary graphs ------------------------


def paired_spectrum(g):
    """The spectrum of a regular self-complementary g, checked to pair as
    {l, -1 - l} below the degree: l_i + l_{n-i+2} = -1 for i >= 2."""
    assert g.is_regular() and is_self_complementary(g)
    eigs = numeric_spectrum(g).eigenvalues
    assert all(abs(eigs[i] + 1 + eigs[g.n - i]) < 1e-9 for i in range(1, g.n))
    return eigs


def interlacing_bound(n):
    """l2 <= (n - 7)/2 - 2 cos(pi (n - 1)/n), given a Hamiltonian cycle."""
    return (n - 7) / 2 - 2 * math.cos(math.pi * (n - 1) / n)


def open_threshold(n):
    """(sqrt(n(n - 4)) - 1)/2, the open threshold on l2."""
    return (math.sqrt(n * (n - 4)) - 1) / 2


def test_eigenvalue_bounds_paley9():
    g = paley_graph(9)
    lam2 = paired_spectrum(g)[1]
    assert hamiltonian(g, "cycle") is not None
    assert lam2 <= interlacing_bound(9) + 1e-9
    assert lam2 <= open_threshold(9) + 1e-9


def test_eigenvalue_bounds_pentagon_thresholds_coincide():
    lam2 = paired_spectrum(cycle_graph(5))[1]
    assert hamiltonian(cycle_graph(5), "cycle") is not None
    # at n = 5 the interlacing bound and the open threshold are both (sqrt5-1)/2
    assert abs(interlacing_bound(5) - open_threshold(5)) < 1e-12
    assert abs(lam2 - open_threshold(5)) < 1e-9
    assert lam2 <= interlacing_bound(5) + 1e-9


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_eigenvalue_bounds_f9(i):
    g = figure_f9(i)
    lam2 = paired_spectrum(g)[1]
    assert hamiltonian(g, "cycle") is not None
    assert lam2 <= interlacing_bound(9) + 1e-9


def test_eigenvalue_bounds_f10():
    paired_spectrum(exa1_graph())
