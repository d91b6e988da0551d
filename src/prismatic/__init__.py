"""prismatic: computational structure theory of complementary prisms.

The complementary prism of a graph G glues G and its complement along a
perfect matching.  This package constructs the graphs the theory revolves
around, computes their automorphisms, antimorphisms, homomorphisms, cores,
spectra, Cheeger numbers and Hamiltonian witnesses, and cross-checks every
structural shortcut against an independent brute-force oracle.
"""

from .graphs import (
    Graph,
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
from .graphio import parse_graph6, write_dot, write_graph6
from .fields import get_field
from .families import (
    FamilySpec,
    Mysterious505,
    apex_pair_graph,
    cay_f49xf4,
    colex_subsets,
    exa1_antimorphism,
    exa1_graph,
    exa1_prism_retraction,
    family_graph,
    figure_f9,
    kneser_graph,
    mysterious505,
    mysterious505_prism_retraction,
    named_graph,
    paley_graph,
    pendant_pair_graph,
    petersen_graph,
)
from .morphisms import (
    BudgetExhausted,
    CoreReport,
    GroupDescription,
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
    is_vertex_transitive,
    same_group,
    verify_retraction,
    wreath_map,
)
from .prisms import (
    CoreCase,
    CoreCaseViolation,
    FamilyMatch,
    PrismPredicates,
    PrismStructure,
    RatioClass,
    classify_core_case,
    detect_family,
    not_lex_product_check,
    prism_predicates,
    ratio_class,
    reconstruct_from_match,
    special_automorphism,
    structured_prism_aut,
)
from .spectral import (
    SpectrumReport,
    SrgAnalysis,
    SrgParams,
    WalkRegularityWitness,
    numeric_spectrum,
    prism_spectrum_closed_form,
    srg_analysis,
    theta_bounds,
    thm_strg_inequality_check,
)
from .structural import (
    BoundCheckReport,
    CheegerReport,
    EigenvalueBoundReport,
    InvariantReport,
    KneserFactsReport,
    PrismHamReport,
    bound_checks,
    cheeger_brute_force,
    cheeger_closed_form,
    chromatic_number,
    eigenvalue_bound_checks,
    hamiltonian,
    invariants,
    kneser_facts,
    max_clique,
    max_independent_set,
    prism_ham_constructions,
    vertex_connectivity,
    vertex_connectivity_brute,
)

__version__ = "0.1.0"
