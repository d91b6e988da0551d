"""End-to-end acceptance battery.

Each test covers one acceptance criterion, prints exactly one PASS/FAIL
line (straight to the terminal, bypassing capture) and enforces the
stated wall-clock limit.  Value provenance is marked inline:

  [TRIVIAL]  asserted directly from the definition
  [DERIVED]  frozen from an independent brute-force oracle in this repo
  [PAPER]    statement verified against the published development
"""

import contextlib
import itertools
import math
import time
from fractions import Fraction

from prismatic.families import (
    exa1_antimorphism,
    exa1_graph,
    exa1_prism_retraction,
    figure_f9,
    mysterious505,
    mysterious505_prism_retraction,
    paley_graph,
    petersen_graph,
)
from prismatic.graphs import (
    build_graph,
    complementary_prism,
    complete_graph,
    cycle_graph,
    lexicographic_product,
    path_graph,
    star_graph,
)
from prismatic.morphisms import (
    antimorphism_facts,
    automorphism_group,
    compute_core,
    find_antimorphisms,
    find_isomorphisms,
    has_regular_subgroup,
    is_antimorphism_map,
    is_isomorphism_map,
    is_self_complementary,
    verify_retraction,
)
from prismatic.prisms import (
    classify_core_case,
    detect_family,
    not_lex_product_check,
    prism_predicates,
    ratio_class,
    structured_prism_aut,
)
from prismatic.spectral import (
    SrgParams,
    numeric_spectrum,
    prism_spectrum_closed_form,
    srg_analysis,
    theta_bounds,
)
from prismatic.structural import (
    cheeger_brute_force,
    cheeger_closed_form,
    hamiltonian,
    invariants,
    kneser_facts,
    prism_ham_constructions,
    vertex_connectivity,
)


@contextlib.contextmanager
def criterion(num, label, limit_seconds):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL", flush=True)
        raise
    elapsed = time.time() - t0
    assert elapsed < limit_seconds, (
        f"criterion {num} exceeded its {limit_seconds}s limit ({elapsed:.1f}s)"
    )
    print(f"criterion {num:2d} ({label}): PASS ({elapsed:.2f}s)", flush=True)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_criterion_01_pentagon_prism_is_petersen(capsys):
    with capsys.disabled(), criterion(1, "pentagon prism identity", 10):
        prism = complementary_prism(cycle_graph(5))
        petersen = petersen_graph()
        # [PAPER] the complementary prism of the 5-cycle is the Petersen graph
        assert find_isomorphisms(prism, petersen, limit=1)
        # [DERIVED] brute-force automorphism count of either copy is 120
        assert automorphism_group(prism).order == 120
        structure = structured_prism_aut(cycle_graph(5))
        assert structure.group.order == 120 and structure.ratio.structure_label == "S5"


def test_criterion_02_ratio_theorem_sweep(capsys):
    with capsys.disabled(), criterion(2, "automorphism ratio sweep n<=5", 600):
        seen_ratios = set()
        count = 0
        for n in range(1, 6):
            for g in all_graphs(n):
                record = structured_prism_aut(g)
                structured = record.group
                brute = automorphism_group(complementary_prism(g))
                # [DERIVED] the structurally assembled group equals the
                # brute-force group element-for-element
                assert structured.order == brute.order, g.edges()
                assert structured.elements == brute.elements
                # [PAPER] the only possible ratios are 1, 2, 4 and 12
                r = ratio_class(record.matches, record.antimorphism)
                assert r.value in (1, 2, 4, 12)
                base = automorphism_group(g)
                assert brute.order == r.value * base.order, g.edges()
                seen_ratios.add(r.value)
                # [PAPER] outside the two families every prism automorphism
                # preserves the two sides or swaps them wholesale
                if not detect_family(g):
                    for p in brute.elements:
                        across = sum(1 for v in range(n) if p[v] >= n)
                        assert across in (0, n), (g.edges(), p)
                count += 1
        assert count == 1099  # [TRIVIAL] number of labelled graphs on <=5 vertices
        assert seen_ratios == {1, 2, 4, 12}


def test_criterion_03_cheeger_numbers(capsys):
    with capsys.disabled(), criterion(3, "cheeger closed form", 300):
        for n in range(1, 6):
            for g in all_graphs(n):
                closed = cheeger_closed_form(g)
                # [DERIVED] exhaustive minimisation over all cuts of the prism
                brute = cheeger_brute_force(complementary_prism(g))
                assert closed.value == brute.value, g.edges()
        # [PAPER] the Petersen graph (pentagon prism) has Cheeger number 1
        assert cheeger_closed_form(cycle_graph(5)).value == 1
        # [PAPER] worked example: the 4-star's prism has Cheeger number 3/4
        assert cheeger_closed_form(star_graph(4)).value == Fraction(3, 4)


def test_criterion_04_prism_spectra(capsys):
    with capsys.disabled(), criterion(4, "prism spectrum closed form", 60):
        corpus = [
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
        ]
        for g in corpus:
            closed = prism_spectrum_closed_form(g).eigenvalues
            # [DERIVED] independent LAPACK eigvalsh eigensolver, tolerance 1e-9
            numeric = numeric_spectrum(complementary_prism(g)).eigenvalues
            assert max(abs(a - b) for a, b in zip(closed, numeric)) < 1e-9
        # [PAPER] pentagon prism spectrum is 3, 1 (x5), -2 (x4)
        bins = prism_spectrum_closed_form(cycle_graph(5)).multiplicity_pairs()
        assert [(round(v), m) for v, m in bins] == [(3, 1), (1, 5), (-2, 4)]


def test_criterion_05_cores(capsys):
    with capsys.disabled(), criterion(5, "prism cores and case classification", 600):
        # [PAPER] the Petersen graph is a core (exhaustive retraction search)
        assert compute_core(petersen_graph()).is_core_itself

        # [PAPER] 13-vertex worked example: antimorphism of order 4 fixing
        # exactly one vertex, published retraction onto a 5-clique
        e = exa1_graph()
        sigma = exa1_antimorphism()
        assert is_antimorphism_map(e, sigma)
        assert antimorphism_facts(sigma, e) == (4, (0,))
        prism = complementary_prism(e)
        psi = exa1_prism_retraction()
        assert verify_retraction(prism, psi, sorted(set(psi)))
        rep = compute_core(prism, seed_endomorphisms=[psi])
        assert rep.status == "ok"
        # [DERIVED] the seeded descent lands on the 5-clique on base labels 0..4
        assert rep.core_vertices == (0, 1, 2, 3, 4)
        assert prism.induced(rep.core_vertices).edge_count() == 10
        # [PAPER] that core sits inside the first side: case II
        assert classify_core_case(e, rep).case == "II_in_W1"

        # [PAPER] triangle + pentagon base realizes the partition case IV
        g = build_graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])  # K3 + C5
        rep = compute_core(complementary_prism(g))
        case = classify_core_case(g, rep)
        assert case.case == "IV_partition"
        assert set(case.V1) | set(case.V2) | set(case.V3) == set(range(8))


def test_criterion_06_mysterious505(capsys):
    with capsys.disabled(), criterion(6, "505-vertex example", 120):
        m = mysterious505()
        g = m.graph
        # [PAPER] 505 vertices, 194-regular, connected with connected complement
        assert g.n == 505
        assert g.degrees() == [194] * 505
        assert g.is_connected() and g.complement().is_connected()
        # [PAPER] the published prism retraction verifies
        psi = mysterious505_prism_retraction(m)
        prism = complementary_prism(g)
        assert verify_retraction(prism, psi, sorted(set(psi)))
        # [DERIVED] the retraction image has 519 of the 1010 prism vertices
        assert len(set(psi)) == 519
        # [DERIVED]/[PAPER] Kneser facts feeding the construction
        kf = kneser_facts()
        assert kf.omega_kneser == 2
        assert kf.ekr_clique_size == 84
        assert kf.ekr_survives_edge_deletion is True
        assert kf.min_rule_coloring_proper is True and kf.min_rule_colors == 4


def test_criterion_07_self_complementary_suite(capsys):
    with capsys.disabled(), criterion(7, "antimorphism structure", 60):
        corpus = [
            ("P4", path_graph(4)),
            ("paley5", paley_graph(5)),
            ("paley9", paley_graph(9)),
            ("paley13", paley_graph(13)),
            ("f9_1", figure_f9(1)),
            ("f9_2", figure_f9(2)),
            ("f9_3", figure_f9(3)),
            ("f9_4", figure_f9(4)),
        ]
        for name, g in corpus:
            assert is_self_complementary(g), name
            sigmas = find_antimorphisms(g)
            assert sigmas, name
            for s in sigmas:
                # [PAPER] every antimorphism has order divisible by 4
                order, fixed = antimorphism_facts(s, g)
                assert order % 4 == 0, name
                if g.n % 4 == 1 and len(set(g.degrees())) == 1:
                    # [PAPER] regular + n = 1 mod 4: exactly one fixed vertex
                    assert len(fixed) == 1, name
                elif g.n % 4 == 0:
                    # [PAPER] n = 0 mod 4: no fixed vertex
                    assert fixed == (), name


def test_criterion_08_transitivity_and_cayleyness(capsys):
    with capsys.disabled(), criterion(8, "vertex-transitive prisms", 300):
        corpus = [
            ("P4", path_graph(4), False),
            ("C5", cycle_graph(5), True),
            ("paley9", paley_graph(9), True),
            ("paley13", paley_graph(13), True),
            ("f9_2", figure_f9(2), False),
            ("f9_3", figure_f9(3), False),
            ("f9_4", figure_f9(4), False),
            ("f10", exa1_graph(), False),
        ]
        for name, g, expected in corpus:
            # prism_predicates cross-checks the structural characterization
            # against the brute-force orbit computation internally
            pred = prism_predicates(structured_prism_aut(g))
            assert pred.vertex_transitive is expected, name
            # [DERIVED] second route: orbit count of the brute-force group
            brute = automorphism_group(complementary_prism(g)).is_transitive()
            assert brute is expected, name
        # f9_1 is isomorphic to paley9, so its prism is vertex-transitive too
        assert prism_predicates(structured_prism_aut(figure_f9(1))).vertex_transitive is True
        # [PAPER] prisms of the pentagon, the path and Paley graphs are not
        # Cayley graphs: no subgroup of the automorphism group acts regularly
        for g in (cycle_graph(5), path_graph(4), paley_graph(9), paley_graph(13), paley_graph(17)):
            prism = complementary_prism(g)
            grp = automorphism_group(prism)
            assert has_regular_subgroup(grp) is None
            # [DERIVED] the exhaustive search agrees with prism_predicates
            assert prism_predicates(structured_prism_aut(g)).is_cayley is False
            if g.is_regular():
                # [TRIVIAL] control: the Paley bases, C5 = Paley(5) included, are Cayley graphs
                assert has_regular_subgroup(automorphism_group(g)) is not None


def test_criterion_09_hamiltonian_constructions(capsys):
    with capsys.disabled(), criterion(9, "prism Hamiltonian constructions", 600):
        bases = [paley_graph(9), paley_graph(13)] + [figure_f9(i) for i in range(1, 5)]
        for g in bases:
            rep = prism_ham_constructions(g)
            path = rep.p8_path
            # [DERIVED] spliced witness is a genuine Hamiltonian prism path
            prism = complementary_prism(g)
            assert path is not None and sorted(path) == list(range(2 * g.n))
            assert all(prism.has_edge(a, b) for a, b in zip(path, path[1:]))
        # [PAPER] prism of paley9 is Hamiltonian-connected: all 153 pairs
        rep = prism_ham_constructions(paley_graph(9))
        prism = complementary_prism(paley_graph(9))
        assert len(rep.ham_connected) == 153
        for (u, v), path in rep.ham_connected.items():
            assert path[0] == u and path[-1] == v
            assert sorted(path) == list(range(18))
            assert all(prism.has_edge(a, b) for a, b in zip(path, path[1:]))
        # [DERIVED] the Petersen graph: Hamiltonian path yes, cycle no
        assert hamiltonian(petersen_graph(), "path") is not None
        assert hamiltonian(petersen_graph(), "cycle") is None


def test_criterion_10_nine_vertex_battery(capsys):
    with capsys.disabled(), criterion(10, "nine-vertex regularity battery", 60):
        # [PAPER] the first graph is strongly regular srg(9, 4, 1, 2)
        a1 = srg_analysis(figure_f9(1))
        assert a1.srg_params == SrgParams(9, 4, 1, 2)
        assert a1.one_walk_regular is True
        # [DERIVED] the other three fail 1-walk-regularity with the first
        # diagonal discrepancy between vertices 0 and 1 at powers 4, 3, 3
        for i, power in ((2, 4), (3, 3), (4, 3)):
            a = srg_analysis(figure_f9(i))
            assert a.srg_params is None
            assert a.one_walk_regular is False
            w = a.witness
            assert w.kind == "diagonal" and w.power == power
            assert w.entries[0][0] == 0 and w.entries[1][0] == 1
        # [DERIVED] connectivity: third graph has kappa = 3 with the unique
        # minimum cut {0, 5, 6}; the others have kappa = 4
        inv3 = invariants(figure_f9(3))
        assert inv3.alpha == 3 and inv3.kappa == 3
        kappa, cut = vertex_connectivity(figure_f9(3))
        assert kappa == 3 and cut == (0, 5, 6)
        for i in (2, 4):
            inv = invariants(figure_f9(i))
            assert inv.alpha == 3 and inv.kappa == 4


def test_criterion_11_theta_and_inequality(capsys):
    with capsys.disabled(), criterion(11, "theta bound and the srg inequality", 1):
        upper, lower = theta_bounds(cycle_graph(5))
        # [PAPER] theta of the pentagon is sqrt(5), tolerance 1e-9
        assert abs(upper - math.sqrt(5)) < 1e-9
        assert abs(lower - math.sqrt(5)) < 1e-9
        # [PAPER] the inequality n + 1 <= (sqrt(n)-1)(sqrt(n+4)+1) fails for
        # every candidate order, killing self-complementary srg prism bases;
        # exact, as m sqrt(k) < isqrt(k m^2) + 1 bounds the right side above
        m = 10**12
        for n in (5, 9, 13, 17, 25, 10**6 + 1):
            s = math.isqrt(n * m * m) + 1
            t = math.isqrt((n + 4) * m * m) + 1
            assert (n + 1) * m * m > (s - m) * (t + m)


def test_criterion_12_lexicographic_products(capsys):
    with capsys.disabled(), criterion(12, "lexicographic product automorphisms", 600):
        c5, k2 = cycle_graph(5), complete_graph(2)
        product = lexicographic_product(c5, k2)
        images = set()
        for phi in find_isomorphisms(c5, c5):
            for mask in range(2 ** 5):
                betas = [
                    [mask >> a & 1, 1 - (mask >> a & 1)] for a in range(5)
                ]
                # (a, b) -> (phi(a), beta_a(b)); vertex (a, b) is a * 2 + b
                wm = tuple(phi[a] * 2 + betas[a][b] for a in range(5) for b in range(2))
                assert is_isomorphism_map(product, product, wm)
                images.add(wm)
        # [PAPER] wreath-style maps give |Aut(C5)| * 2^5 = 320 automorphisms
        assert len(images) == 320
        # [DERIVED] and brute force finds no others
        assert len(find_isomorphisms(product, product)) == 320
        # [PAPER] complementary prisms are never lexicographic products
        # (verified exhaustively for all bases on up to 4 vertices)
        for n in range(1, 5):
            for g in all_graphs(n):
                assert not_lex_product_check(complementary_prism(g)) is True
