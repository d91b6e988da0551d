import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prismatic.cli import main
from prismatic.families import (
    FamilySpec,
    family_graph,
    figure_f9,
    named_graph,
    paley_graph,
    petersen_graph,
)
from prismatic.graphs import (
    Graph,
    build_graph,
    complementary_prism,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from prismatic import structural
from prismatic.morphisms import BudgetExhausted, SearchBudget
from prismatic.structural import (
    CHEEGER_BRUTE_MAX_N,
    VERTEX_CONNECTIVITY_BRUTE_MAX_N,
    _edge_boundary,
    _report_for,
    bound_checks,
    cheeger_brute_force,
    cheeger_closed_form,
    chromatic_number,
    hamiltonian,
    invariants,
    kneser_facts,
    max_clique,
    max_independent_set,
    prism_ham_constructions,
    vertex_connectivity,
    vertex_connectivity_brute,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


# -- cliques, independence, colorings -------------------------------------------


def test_max_clique_known_values():
    assert len(max_clique(complete_graph(5))) == 5
    assert len(max_clique(cycle_graph(5))) == 2
    assert len(max_clique(petersen_graph())) == 2
    assert len(max_clique(paley_graph(9))) == 3
    assert max_clique(empty_graph(3)) == (0,) or len(max_clique(empty_graph(3))) == 1


def test_max_independent_set_known_values():
    assert len(max_independent_set(cycle_graph(5))) == 2
    assert len(max_independent_set(petersen_graph())) == 4
    assert len(max_independent_set(complete_graph(4))) == 1
    assert len(max_independent_set(empty_graph(6))) == 6


def test_chromatic_known_values():
    for g, chi in [
        (complete_graph(4), 4),
        (cycle_graph(5), 3),
        (cycle_graph(6), 2),
        (petersen_graph(), 3),
        (paley_graph(9), 3),
        (paley_graph(13), 5),
        (empty_graph(4), 1),
        (paley_graph(29), 8),
        (paley_graph(37), 10),
        # 58 vertices, above CHROMATIC_EXACT_MAX_N, where the bounds meet
        (complementary_prism(paley_graph(29)), 8),
    ]:
        value, coloring, exact = chromatic_number(g)
        assert value == chi and exact
        # returned coloring is proper and uses exactly chi colors
        assert len(set(coloring)) == chi
        for u, v in g.edges():
            assert coloring[u] != coloring[v]


def _k_colorable(g: Graph, k: int) -> list[int] | None:
    """Exact backtracking k-coloring (colors 1..k), or None."""
    n = g.n
    order = sorted(range(n), key=lambda v: -g.degree(v))
    colors = [0] * n

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        forbidden = {colors[u] for u in g.neighbors(v) if colors[u]}
        limit = min(k, used + 1)  # first use of a new color is canonical
        for c in range(1, limit + 1):
            if c in forbidden:
                continue
            colors[v] = c
            if rec(i + 1, max(used, c)):
                return True
            colors[v] = 0
        return False

    return colors if rec(0, 0) else None


def reference_chromatic_number(g):
    """(chi, exact) by the clique bound, DSATUR, then ``_k_colorable`` for
    each k in between, up to CHROMATIC_EXACT_MAX_N vertices."""
    if g.n == 0:
        return 0, True
    lb = len(max_clique(g))
    ub = max(structural._dsatur_coloring(g))
    if lb == ub:
        return ub, True
    if g.n > structural.CHROMATIC_EXACT_MAX_N:
        return ub, False
    for k in range(lb, ub):
        if _k_colorable(g, k) is not None:
            return k, True
    return ub, True


NAMED_FAMILIES = [
    "petersen", "exa1", "cay_f49xf4", "cycle:5", "cycle:6", "cycle:9", "path:1", "path:7",
    "complete:1", "complete:6", "empty:1", "empty:4", "star:5", "paley:5", "paley:9",
    "paley:13", "paley:17", "kneser:5:2", "kneser:6:2", "kneser:7:2", "kneser:7:3",
    "figure_f9:1", "figure_f9:2", "figure_f9:3", "figure_f9:4",
]


def _chromatic_cases():
    rng = random.Random(1301)
    graphs = [named_graph(spec) for spec in NAMED_FAMILIES]
    graphs += [
        family_graph(FamilySpec(kind, named_graph(inner)))
        for kind in ("C5", "A")
        for inner in ("empty:1", "complete:3", "cycle:4", "path:3", "star:4", "cycle:5")
    ]
    for n in range(17):
        for density in (0.2, 0.5, 0.8):
            graphs += [random_graph(n, rng, density) for _ in range(6)]
    graphs += [complementary_prism(random_graph(n, rng, 0.5)) for n in range(1, 10) for _ in range(10)]
    return graphs


def test_chromatic_number_matches_reference_route():
    for g in _chromatic_cases():
        chi, coloring, exact = chromatic_number(g)
        ref_chi, ref_exact = reference_chromatic_number(g)
        assert chi == ref_chi, g.name
        if g.n <= structural.CHROMATIC_EXACT_MAX_N:
            assert exact == ref_exact, g.name
        else:  # a meeting of the bounds may only make the answer exact
            assert exact >= ref_exact, g.name
        assert len(coloring) == g.n
        assert set(coloring) == set(range(1, chi + 1)), g.name
        for u, v in g.edges():
            assert coloring[u] != coloring[v]


def test_invariants_command_on_paley37(capsys):
    assert main(["invariants", "--name", "paley:37"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["chi"], report["exact"]) == (37, 10, True)
    assert sorted(set(report["witnesses"]["coloring"])) == list(range(1, 11))


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_invariants_reproduce_the_bench_reference_answers(capsys):
    answers, workloads = load_bench("answers"), load_bench("workloads")
    ref = workloads.load_reference()
    rng = random.Random(1302)
    replayed = 0
    for key, expected in sorted(ref["answers"].items()):
        kind, base = key.split("|")
        if not kind.startswith("invariants"):
            continue
        inputs = workloads.random_inputs(ref["bases"][base]["g6"], rng)
        req = workloads.request(kind, base, inputs)
        rc = main(req.argv)
        out = capsys.readouterr().out
        assert answers.check_valid(req.kind, req.argv, expected, rc, out, None) is None, key
        replayed += 1
    assert replayed == 44


def test_invariant_report_consistency_small():
    for g in (cycle_graph(5), petersen_graph(), paley_graph(9), path_graph(5)):
        inv = invariants(g)
        assert inv.chi >= inv.omega
        assert inv.alpha * inv.chi >= g.n
        assert len(inv.witnesses["independent_set"]) == inv.alpha
        assert len(inv.witnesses["clique"]) == inv.omega
        assert inv.exact


def test_invariants_frozen_nine_vertex_values():
    # independence number, connectivity and chromatic number of the four
    # nine-vertex self-complementary graphs
    expected = {
        1: (3, 4, 3),
        2: (3, 4, 3),
        3: (3, 3, 4),
        4: (3, 4, 4),
    }
    for i, (alpha, kappa, chi) in expected.items():
        inv = invariants(figure_f9(i))
        assert (inv.alpha, inv.kappa, inv.chi) == (alpha, kappa, chi), i


def test_invariants_petersen():
    inv = invariants(petersen_graph())
    assert (inv.alpha, inv.omega, inv.chi, inv.kappa) == (4, 2, 3, 3)


# -- vertex connectivity ---------------------------------------------------------


def test_vertex_connectivity_special_cases():
    assert vertex_connectivity(complete_graph(5)) == (4, None)
    kappa, cut = vertex_connectivity(build_graph(4, [(0, 1), (2, 3)]))
    assert kappa == 0 and cut == ()
    assert vertex_connectivity(star_graph(5))[0] == 1
    assert vertex_connectivity(cycle_graph(5))[0] == 2
    assert vertex_connectivity(petersen_graph())[0] == 3


def test_vertex_connectivity_cut_disconnects():
    g = figure_f9(3)
    kappa, cut = vertex_connectivity(g)
    assert kappa == 3
    assert cut == (0, 5, 6)
    remaining = [v for v in range(g.n) if v not in cut]
    assert not g.induced(remaining).is_connected()


def test_vertex_connectivity_agrees_with_brute_force():
    for n in range(2, 6):
        for g in all_graphs(n):
            assert vertex_connectivity(g)[0] == vertex_connectivity_brute(g)
    # deterministic slice of the six-vertex graphs
    pairs = list(itertools.combinations(range(6), 2))
    for mask in range(0, 1 << 15, 531):
        g = build_graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
        assert vertex_connectivity(g)[0] == vertex_connectivity_brute(g), mask


def _reference_maxflow_vertex_disjoint(g, s, t):
    """Number of internally vertex-disjoint s-t paths and a minimum s-t
    vertex cut, via unit-capacity max flow on the split graph.

    Nodes 2v (in) and 2v+1 (out); v_in -> v_out capacity 1 except at s, t
    where it is effectively infinite; each edge uv gives u_out -> v_in and
    v_out -> u_in of large capacity.
    """
    n = g.n
    INF = n + 1
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {}

    def add(a: int, b: int, c: int):
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for v in range(n):
        add(2 * v, 2 * v + 1, INF if v in (s, t) else 1)
    for v, u in g.edges():
        add(2 * v + 1, 2 * u, INF)
        add(2 * u + 1, 2 * v, INF)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        while queue and sink not in parent:
            nxt = []
            for a in queue:
                for b in adj.get(a, ()):
                    if b not in parent and cap[(a, b)] > 0:
                        parent[b] = a
                        nxt.append(b)
            queue = nxt
        if sink not in parent:
            break
        b = sink
        while b != source:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
    reach = set(parent)
    cut = {v for v in range(n) if v not in (s, t) and 2 * v in reach and 2 * v + 1 not in reach}
    return flow, cut


def reference_vertex_connectivity(g):
    """The all-pairs max flow that the Esfahanian-Hakimi routine replaced.

    Max-flow over every non-adjacent pair; complete graphs have kappa
    n - 1 by convention and no separating witness.  Kept here as the slow
    reference for kappa.
    """
    n = g.n
    if n <= 1:
        return 0, None
    if g.edge_count() == n * (n - 1) // 2:
        return n - 1, None
    if not g.is_connected():
        return 0, ()
    best = None
    best_cut: set[int] = set()
    for s in range(n):
        for t in range(s + 1, n):
            if g.has_edge(s, t):
                continue
            f, cut = _reference_maxflow_vertex_disjoint(g, s, t)
            if best is None or f < best:
                best, best_cut = f, cut
    assert best is not None
    removed = g.induced(sorted(set(range(n)) - best_cut))
    assert not removed.is_connected(), "cut witness failed to disconnect"
    return best, tuple(sorted(best_cut))


def _connectivity_cases():
    rng = random.Random(19841975)

    def gnp(n):
        p = rng.uniform(0.1, 0.9)
        return build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])

    graphs = [gnp(rng.randint(2, 14)) for _ in range(160)]
    graphs += [complementary_prism(gnp(rng.randint(1, 7))) for _ in range(40)]
    # the complements are the graphs bound_checks hands to vertex_connectivity
    graphs += [g.complement() for g in graphs]
    graphs += [complementary_prism(paley_graph(q)) for q in (5, 9, 13, 17)]
    graphs += [figure_f9(i) for i in range(1, 5)]
    return graphs


def test_vertex_connectivity_matches_all_pairs_reference():
    for g in _connectivity_cases():
        kappa, cut = vertex_connectivity(g)
        assert kappa == reference_vertex_connectivity(g)[0], g.adj
        if cut is None:
            assert g.edge_count() == g.n * (g.n - 1) // 2, g.adj
            continue
        assert len(cut) == kappa, g.adj
        assert not g.induced([v for v in range(g.n) if v not in cut]).is_connected(), g.adj


def test_vertex_connectivity_finds_a_cut_through_the_min_degree_vertex():
    # two disjoint K6 joined only through vertex 12, adjacent to two
    # vertices of each: delta = 4 at 12, and the unique minimum cut holds it,
    # so only a flow between two of its neighbours can find kappa = 1
    edges = [e for part in (range(6), range(6, 12)) for e in itertools.combinations(part, 2)]
    edges += [(0, 12), (1, 12), (6, 12), (7, 12)]
    g = build_graph(13, edges)
    assert min(g.degrees()) == g.degree(12) == 4
    assert vertex_connectivity(g) == (1, (12,))


def test_vertex_connectivity_runs_esfahanian_hakimi_flow_count(monkeypatch):
    g = complementary_prism(paley_graph(17))
    calls = []
    flow = structural._maxflow_vertex_disjoint

    def counted(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(structural, "_maxflow_vertex_disjoint", counted)
    assert vertex_connectivity(g)[0] == 9
    # (n - delta - 1) + C(delta, 2) with n = 34, delta = 9; all pairs took 408
    assert len(calls) <= 24 + 36


def test_vertex_connectivity_brute_rejects_large_input():
    with pytest.raises(ValueError):
        vertex_connectivity_brute(empty_graph(VERTEX_CONNECTIVITY_BRUTE_MAX_N + 1))


# -- Cheeger numbers -------------------------------------------------------------


def test_cheeger_closed_form_values():
    assert cheeger_closed_form(cycle_graph(5)).value == 1
    assert cheeger_closed_form(star_graph(4)).value == Fraction(3, 4)
    assert cheeger_closed_form(complete_graph(2)).value == Fraction(1, 2)
    assert cheeger_closed_form(paley_graph(9)).value == 1


def test_cheeger_witness_ratio_matches_value():
    for g in (cycle_graph(5), star_graph(4), complete_graph(2), path_graph(4)):
        rep = cheeger_closed_form(g)
        prism = complementary_prism(g)
        S, T = rep.witness
        boundary = sum(1 for u in S for w in prism.neighbors(u) if w not in set(S))
        assert Fraction(boundary, len(S)) == rep.value


def test_cheeger_closed_form_agrees_with_brute_force():
    for n in range(1, 6):
        for g in all_graphs(n):
            closed = cheeger_closed_form(g)
            brute = cheeger_brute_force(complementary_prism(g))
            assert closed.value == brute.value, g.edges()


def test_cheeger_brute_on_plain_graphs():
    assert cheeger_brute_force(complete_graph(2)).value == 1
    assert cheeger_brute_force(cycle_graph(4)).value == 1
    assert cheeger_brute_force(path_graph(4)).value == Fraction(1, 2)
    rep = cheeger_brute_force(cycle_graph(6))
    assert rep.value == Fraction(2, 3)
    S, T = rep.witness
    assert 1 <= len(S) <= len(T)


def reference_cheeger_brute_force(g):
    """The pure-Python scan that the subset DP replaced.

    It visits the masks in ascending order and keeps the first one whose
    ratio is strictly smaller, so its witness is the smallest mask that
    attains the minimum.  Kept here as the slow reference: the kernel must
    return the same report, witness included.
    """
    n = g.n
    half = n // 2
    best_e, best_s, best_mask = None, None, None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > half:
            continue
        e = _edge_boundary(g, mask)
        # compare e/size < best_e/best_s by cross multiplication
        if best_e is None or e * best_s < best_e * size:
            best_e, best_s, best_mask = e, size, mask
    return _report_for(g, best_mask, "brute_force")


def random_graph(n, rng, density=0.5):
    return build_graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < density])


def test_cheeger_kernel_matches_reference_on_small_prisms():
    for n in range(1, 5):
        for g in all_graphs(n):
            prism = complementary_prism(g)
            assert cheeger_brute_force(prism) == reference_cheeger_brute_force(prism), g.adj


def test_cheeger_kernel_matches_reference_on_random_graphs():
    rng = random.Random(20211018)
    for n in range(2, 15):
        for _ in range(3):
            g = random_graph(n, rng)
            assert cheeger_brute_force(g) == reference_cheeger_brute_force(g), g.adj


@pytest.mark.parametrize("n", [2, 3, 7, 10])
def test_cheeger_kernel_matches_reference_on_extreme_graphs(n):
    for g in (empty_graph(n), complete_graph(n), star_graph(n)):
        assert cheeger_brute_force(g) == reference_cheeger_brute_force(g), g.adj


def test_cheeger_value_invariant_under_relabelling():
    rng = random.Random(8)
    for n in range(2, 13):
        g = random_graph(n, rng)
        value = cheeger_brute_force(g).value
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert cheeger_brute_force(g.relabel(perm)).value == value, (g.adj, perm)


def test_cheeger_brute_input_validation():
    with pytest.raises(ValueError):
        cheeger_brute_force(complete_graph(1))
    with pytest.raises(ValueError):
        cheeger_brute_force(empty_graph(CHEEGER_BRUTE_MAX_N + 1))


# -- Hamiltonian searches ---------------------------------------------------------


def test_hamiltonian_cycles():
    cyc = hamiltonian(cycle_graph(5), "cycle")
    assert cyc is not None and len(cyc) == 5
    g = cycle_graph(5)
    for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
        assert g.has_edge(a, b)
    assert hamiltonian(complete_graph(2), "cycle") is None
    assert hamiltonian(complete_graph(1), "cycle") == [0]


def test_hamiltonian_paths():
    p = hamiltonian(path_graph(4), "path")
    assert p is not None and sorted(p) == [0, 1, 2, 3]
    assert hamiltonian(path_graph(4), "cycle") is None
    assert hamiltonian(star_graph(4), "path") is None


def test_petersen_is_hypohamiltonian_boundary():
    # Hamiltonian path yes, Hamiltonian cycle no
    p = petersen_graph()
    path = hamiltonian(p, "path")
    assert path is not None and len(path) == 10
    for a, b in zip(path, path[1:]):
        assert p.has_edge(a, b)
    assert hamiltonian(p, "cycle") is None


def test_hamiltonian_path_between():
    c4 = cycle_graph(4)
    assert hamiltonian(c4, "path_between", u=0, v=2) is None  # same parity class
    path = hamiltonian(c4, "path_between", u=0, v=1)
    assert path is not None and path[0] == 0 and path[-1] == 1


def test_hamiltonian_connected_mode():
    conn = hamiltonian(complete_graph(4), "connected")
    assert conn is not None and len(conn) == 6
    for (u, v), path in conn.items():
        assert path[0] == u and path[-1] == v and len(path) == 4
    assert hamiltonian(cycle_graph(4), "connected") is None


def test_hamiltonian_mode_validation_and_budget():
    with pytest.raises(ValueError):
        hamiltonian(cycle_graph(4), "tour")
    with pytest.raises(BudgetExhausted):
        hamiltonian(paley_graph(13), "cycle", budget=2)


# -- prism Hamiltonian constructions ------------------------------------------------


def test_prism_ham_p8_paths():
    for g in [paley_graph(9), paley_graph(13)] + [figure_f9(i) for i in range(1, 5)]:
        rep = prism_ham_constructions(g)
        path = rep.p8_path
        assert path is not None and len(path) == 2 * g.n
        prism = complementary_prism(g)
        assert sorted(path) == list(range(2 * g.n))
        for a, b in zip(path, path[1:]):
            assert prism.has_edge(a, b)


def test_prism_ham_all_pairs_paley9():
    g = paley_graph(9)
    rep = prism_ham_constructions(g)
    conn = rep.ham_connected
    assert conn is not None and len(conn) == 18 * 17 // 2
    prism = complementary_prism(g)
    for (u, v), path in conn.items():
        assert path[0] == u and path[-1] == v
        assert sorted(path) == list(range(18))
        for a, b in zip(path, path[1:]):
            assert prism.has_edge(a, b)


def test_prism_ham_constructions_share_one_budget():
    g = paley_graph(9)
    inner = []
    for h in (g, g.complement()):
        for mode in ("cycle", "connected"):
            spent = SearchBudget()
            hamiltonian(h, mode, budget=spent)
            inner.append(spent.nodes)
    total = SearchBudget()
    full = prism_ham_constructions(g, budget=total)
    assert full.ham_connected is not None
    assert sum(inner) == total.nodes and max(inner) < total.nodes - 1
    for short in (total.nodes - 1, SearchBudget(total.nodes - 1)):
        with pytest.raises(BudgetExhausted):
            prism_ham_constructions(g, budget=short)
    assert prism_ham_constructions(g, budget=total.nodes) == full


def test_prism_ham_single_vertex():
    rep = prism_ham_constructions(complete_graph(1))
    assert rep.p8_path == [0, 1]


def test_prism_ham_unavailable_base():
    rep = prism_ham_constructions(star_graph(4))
    assert rep.p8_path is None
    assert rep.notes


# -- inequality reports --------------------------------------------------------------


def test_bound_checks_paley9():
    rep = bound_checks(paley_graph(9))
    assert rep.dam == {
        "kappa": 4,
        "kappa_complement": 4,
        "min_degree": 4,
        "holds": True,
    }
    assert rep.chvatal_erdos["premise_alpha_lt_kappa"] is True
    assert rep.clique_coclique["holds"] is True
    assert rep.clique_coclique["regularity"] == "vertex_transitive"
    assert rep.preimage["fiber_sizes"] == (3, 3, 3)
    assert rep.preimage["all_fibers_alpha"] is True
    assert rep.preimage["alpha_times_omega_equals_n"] is True


def test_bound_checks_pentagon():
    rep = bound_checks(cycle_graph(5))
    assert rep.clique_coclique["holds"] is True  # 2 * 2 <= 5
    # chi = 3 > omega = 2, so the preimage argument does not apply
    assert rep.preimage == "not applicable"


def test_bound_checks_path_not_regular_enough():
    rep = bound_checks(path_graph(4))
    assert rep.clique_coclique == "not applicable"
    assert rep.preimage == "not applicable"


def test_bound_checks_disconnected_complement():
    # complete graphs have a disconnected complement: no connectivity bound
    rep = bound_checks(complete_graph(4))
    assert rep.dam is None


def test_prism_chromatic_exceeds_clique():
    for g in (cycle_graph(5), paley_graph(9), paley_graph(13)):
        prism = complementary_prism(g)
        inv = invariants(prism)
        assert inv.exact
        assert inv.chi > inv.omega


# -- Kneser facts ----------------------------------------------------------------------


def test_kneser_facts_report():
    rep = kneser_facts()
    assert rep.omega_kneser == 2
    assert rep.ekr_clique_size == 84
    assert rep.ekr_survives_edge_deletion is True
    assert rep.min_rule_coloring_proper is True
    assert rep.min_rule_colors == 4
    assert rep.cited_bounds  # recorded but not verified here
