"""Command-line interface.

Graphs travel between subcommands as graph6 text on stdin/stdout, so
commands compose with ordinary shell pipes::

    prismatic prism --name paley:5 | prismatic aut

Analysis subcommands print machine-readable JSON reports.  Each ``cmd_*``
function returns its report (a dict, or the bare graph6 text of
``construct`` and ``prism`` without ``--json``), and ``main`` is the one
place that prints it.  Exit status is
nonzero only for input errors (bad graph6, unknown constructor, missing
flags, input outside a command's precondition); mathematical "no" answers
are ordinary results with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, tee

from .families import (
    exa1_antimorphism,
    exa1_graph,
    exa1_prism_retraction,
    figure_f9,
    mysterious505,
    mysterious505_prism_retraction,
    named_graph,
    petersen_graph,
)
from .graphio import parse_graph6, write_graph6
from .graphs import Graph, build_graph, complementary_prism, complete_graph, cycle_graph
from .morphisms import (
    BudgetExhausted,
    SearchBudget,
    antimorphism_facts,
    automorphism_group,
    compute_core,
    find_antimorphisms,
    find_isomorphisms,
    verify_retraction,
)
from .prisms import (
    classify_core_case,
    not_lex_product_check,
    prism_predicates,
    structured_prism_aut,
)
from .spectral import (
    PRISM_SPECTRUM_TOL,
    numeric_spectrum,
    prism_spectrum_closed_form,
    srg_analysis,
    theta_bounds,
)
from .structural import (
    cheeger_brute_force,
    cheeger_brute_force_batch,
    cheeger_closed_form,
    hamiltonian,
    invariants,
    kneser_facts,
    prism_ham_constructions,
    vertex_connectivity,
)


class InputError(Exception):
    """Bad user input (unknown name, malformed graph6, missing flag, unmet precondition)."""


@contextmanager
def precondition():
    """Report a library precondition (a ValueError) as an input error, exit 2.

    An oracle's AssertionError is not caught: a disagreement is a bug.
    """
    try:
        yield
    except ValueError as e:
        raise InputError(str(e)) from e


def require_positive(flag: str, value: int | None) -> None:
    """Reject a count below 1; None means the flag was not given."""
    if value is not None and value < 1:
        raise InputError(f"{flag} must be at least 1, got {value}")


def _json_default(obj):
    """Encode the one non-JSON value that reports hold, a Fraction."""
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator, "str": str(obj)}
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


def emit(report: dict) -> None:
    json.dump(report, sys.stdout, default=_json_default, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def load_graph(args) -> Graph:
    """The graph named by --name or --g6, else one graph6 line from stdin.

    A flag given with an empty value is an input like any other, so it is
    rejected rather than falling through to stdin.
    """
    if args.name is not None and args.g6 is not None:
        raise InputError("give at most one of --name / --g6")
    if args.name is not None:
        try:
            return named_graph(args.name)
        except (KeyError, ValueError) as e:
            raise InputError(f"unknown constructor {args.name!r}: {e}") from e
    if args.g6 is not None:
        try:
            return parse_graph6(args.g6)
        except ValueError as e:
            raise InputError(f"bad graph6: {e}") from e
    data = sys.stdin.readline().strip()
    if not data:
        raise InputError("no graph given: use --name, --g6, or pipe graph6 on stdin")
    try:
        return parse_graph6(data)
    except ValueError as e:
        raise InputError(f"bad graph6 on stdin: {e}") from e


def detect_prism_layout(g: Graph) -> Graph | None:
    """Recognize the standard prism labeling (base, complement, matching).

    Returns the graph induced by vertices 0..n-1 when g is exactly its
    complementary prism in the standard labeling; None otherwise.
    """
    if g.n == 0 or g.n % 2:
        return None
    base = g.induced(range(g.n // 2))
    return base if complementary_prism(base) == g else None


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_graph6(args) -> dict | str:
    """``construct`` and ``prism``: the graph, or its prism, as graph6."""
    g = load_graph(args)
    if args.command == "prism":
        with precondition():  # the null graph has no prism
            g = complementary_prism(g)
    with precondition():  # graph6 stops below 2^18 vertices
        text = write_graph6(g)
    if not args.json:
        return text
    return {"command": args.command, "n": g.n, "edges": g.edge_count(), "graph6": text}


def cmd_aut(args) -> dict:
    g = load_graph(args)
    group = automorphism_group(g)
    report = {
        "command": "aut",
        "n": g.n,
        "order": group.order,
        "generators": len(group.generators),
        "orbits": [sorted(o) for o in group.orbits],
        "transitive": group.is_transitive(),
    }
    base = detect_prism_layout(g)
    if base is not None:
        structure = structured_prism_aut(base, prism=g)
        structure.check(group)
        report["prism_of"] = {
            "n": base.n,
            "base_aut_order": structure.base_group.order,
            "ratio": structure.ratio.value,
            "ratio_reason": structure.ratio.reason,
            "structure": structure.ratio.structure_label,
        }
    return report


def cmd_antimorph(args) -> dict:
    g = load_graph(args)
    require_positive("--limit", args.limit)
    antis = find_antimorphisms(g, limit=args.limit)
    report = {
        "command": "antimorph",
        "n": g.n,
        "self_complementary": bool(antis),
        "found": len(antis),
    }
    if antis:
        order, fixed = antimorphism_facts(antis[0], g)
        report["first"] = {
            "image": list(antis[0]),
            "order": order,
            "fixed_points": sorted(fixed),
        }
    return report


def cmd_core(args) -> dict:
    g = load_graph(args)
    require_positive("--budget-nodes", args.budget_nodes)
    base = None
    if args.prism:
        base = g
        with precondition():  # the null graph has no prism
            g = complementary_prism(base)
    rep = compute_core(g, budget=SearchBudget(args.budget_nodes))
    report = {
        "command": "core",
        "n": g.n,
        "status": rep.status,
        "core_size": len(rep.core_vertices),
        "core_vertices": sorted(rep.core_vertices),
        "is_core_itself": rep.is_core_itself,
    }
    if base is not None and rep.status == "ok" and base.n != 2:
        case = classify_core_case(base, rep, prism=g)
        report["case"] = case.case
        if case.V1 or case.V2 or case.V3:
            report["partition"] = {"V1": case.V1, "V2": case.V2, "V3": case.V3}
    return report


def cmd_classify(args) -> dict:
    g = load_graph(args)
    with precondition():  # the null graph has no prism
        structure = structured_prism_aut(g)
    preds = prism_predicates(structure)
    report = {
        "command": "classify",
        "n": g.n,
        "family_matches": [
            {
                "kind": m.kind,
                "inner_size": m.inner.n,
                "inner_vertices": m.inner_vertices,
                "outer": m.outer,
            }
            for m in structure.matches
        ],
        "self_complementary": structure.antimorphism is not None,
        "prism_aut_order": structure.group.order,
        "prism_aut_structure": structure.ratio.structure_label,
        "ratio": structure.ratio.value,
        "ratio_reason": structure.ratio.reason,
        "prism_vertex_transitive": preds.vertex_transitive,
        "prism_is_cayley": preds.is_cayley,
        "prism_diameter": preds.diameter,
    }
    not_lex = not_lex_product_check(structure.prism)
    if not_lex is not None:  # None past the check's 16-vertex cut-off
        report["prism_not_lex_product"] = not_lex
    return report


def cmd_cheeger(args) -> dict:
    g = load_graph(args)
    with precondition():  # brute force is limited to CHEEGER_BRUTE_MAX_N vertices
        if args.prism:
            prism = complementary_prism(g)
            rep = cheeger_closed_form(g, prism=prism)
        else:
            rep = cheeger_brute_force(g)
        report = {
            "command": "cheeger",
            "value": rep.value,
            "method": rep.method,
            "witness_S": rep.witness[0],
            "witness_T": rep.witness[1],
        }
        if args.prism:
            report["of"] = "complementary prism"
            report["base_n"] = g.n
            if args.brute or 2 * g.n <= 16:
                brute = cheeger_brute_force(prism)
                report["brute_force_value"] = brute.value
                if brute.value != rep.value:
                    raise AssertionError("closed form disagrees with brute force")
        else:
            report["n"] = g.n
    return report


def cmd_spectrum(args) -> dict:
    g = load_graph(args)
    report = {"command": "spectrum", "n": g.n}
    numeric = numeric_spectrum(g)
    report["numeric"] = [[round(v, 12), m] for v, m in numeric.multiplicity_pairs()]
    if args.prism_closed_form:
        with precondition():  # the closed form needs a nonempty regular graph
            closed = prism_spectrum_closed_form(g)
        report["prism_closed_form"] = [[round(v, 12), m] for v, m in closed.multiplicity_pairs()]
        prism_numeric = numeric_spectrum(complementary_prism(g))
        diff = max(
            abs(a - b)
            for a, b in zip(closed.eigenvalues, prism_numeric.eigenvalues)
        )
        report["prism_numeric_max_diff"] = diff
        if diff > PRISM_SPECTRUM_TOL:
            raise AssertionError(f"closed form and numeric spectra differ by {diff}")
    return report


def cmd_srg(args) -> dict:
    g = load_graph(args)
    rep = srg_analysis(g)
    report = {
        "command": "srg",
        "n": g.n,
        "strongly_regular": rep.srg_params is not None,
        "one_walk_regular": rep.one_walk_regular,
    }
    if rep.srg_params:
        p = rep.srg_params
        report["parameters"] = [p.n, p.k, p.lam, p.mu]
    for key, w in (("witness", rep.witness), ("edge_witness", rep.edge_witness)):
        if w is not None:
            report[key] = {"power": w.power, "kind": w.kind, "entries": list(w.entries)}
    if rep.srg_sc_eigen:
        report["self_complementary_eigenvalues"] = list(rep.srg_sc_eigen)
    return report


def cmd_theta(args) -> dict:
    g = load_graph(args)
    with precondition():  # the bound needs a regular graph
        upper, complement_lower = theta_bounds(g)
    return {
        "command": "theta",
        "n": g.n,
        "upper_bound": upper,
        "complement_lower_bound": complement_lower,
    }


def cmd_hamilton(args) -> dict:
    g = load_graph(args)
    require_positive("--budget-nodes", args.budget_nodes)
    report = {"command": "hamilton", "n": g.n}
    if not args.constructions:
        report["mode"] = args.mode
    budget = SearchBudget(args.budget_nodes)
    try:
        if args.constructions:
            with precondition():  # the null graph has no prism
                rep = prism_ham_constructions(g, budget=budget)
            report["prism_p8_path"] = rep.p8_path
            report["prism_ham_connected_pairs"] = (
                len(rep.ham_connected) if rep.ham_connected else 0
            )
            report["notes"] = list(rep.notes)
        elif args.mode == "path_between":
            if args.endpoints is None:
                raise InputError("path_between needs --endpoints U,V")
            try:
                u, v = (int(x) for x in args.endpoints.split(","))
            except ValueError as e:
                raise InputError(f"bad --endpoints {args.endpoints!r}: expected U,V") from e
            with precondition():  # two distinct endpoints in range
                report["witness"] = hamiltonian(g, "path_between", u, v, budget=budget)
        elif args.mode == "connected":
            got = hamiltonian(g, "connected", budget=budget)
            report["hamiltonian_connected"] = got is not None
            if got is not None:  # {} on a graph with at most one vertex
                report["pairs"] = len(got)
        else:
            report["witness"] = hamiltonian(g, args.mode, budget=budget)
    except BudgetExhausted:
        report["status"] = "unknown"
        report["note"] = "search budget exhausted"
    return report


def cmd_invariants(args) -> dict:
    g = load_graph(args)
    rep = invariants(g)
    return {
        "command": "invariants",
        "n": g.n,
        "alpha": rep.alpha,
        "omega": rep.omega,
        "chi": rep.chi,
        "kappa": rep.kappa,
        "exact": rep.exact,
        "witnesses": rep.witnesses,
    }


# ---------------------------------------------------------------------------
# Fixture verification and the cross-oracle sweep.
# ---------------------------------------------------------------------------


def _verify_exa1() -> dict:
    g = exa1_graph()
    order, fixed = antimorphism_facts(exa1_antimorphism(), g)
    prism = complementary_prism(g)
    psi = exa1_prism_retraction()
    image = sorted(set(psi))
    if not verify_retraction(prism, psi, image):
        raise AssertionError("published exa1 retraction failed verification")
    rep = compute_core(prism, seed_endomorphisms=[psi])
    case = classify_core_case(g, rep, prism=prism)
    core_graph = prism.induced(sorted(rep.core_vertices))
    is_k5 = bool(find_isomorphisms(core_graph, complete_graph(5), limit=1))
    return {
        "fixture": "exa1",
        "antimorphism": {"order": order, "fixed_points": sorted(fixed)},
        "retraction_verified": True,
        "core_size": len(rep.core_vertices),
        "core_is_k5": is_k5,
        "case": case.case,
    }


def _verify_mysterious505() -> dict:
    t0 = time.perf_counter()
    fix = mysterious505()
    g = fix.graph
    degs = set(g.degrees())
    prism = complementary_prism(g)
    psi = mysterious505_prism_retraction(fix)
    image = sorted(set(psi))
    if not verify_retraction(prism, psi, image):
        raise AssertionError("published 505 retraction failed verification")
    kn = kneser_facts()
    return {
        "fixture": "mysterious505",
        "n": g.n,
        "regular": degs == {194},
        "connected": g.is_connected(),
        "complement_connected": g.complement().is_connected(),
        "retraction_verified": True,
        "retract_size": len(image),
        "kneser": {
            "omega": kn.omega_kneser,
            "ekr_clique": kn.ekr_clique_size,
            "min_rule_proper": kn.min_rule_coloring_proper,
        },
        "seconds": round(time.perf_counter() - t0, 2),
    }


def _verify_petersen() -> dict:
    pet = petersen_graph()
    prism = complementary_prism(cycle_graph(5))
    iso = bool(find_isomorphisms(prism, pet, limit=1))
    brute = automorphism_group(prism)
    structure = structured_prism_aut(cycle_graph(5))
    structure.check(brute)
    core = compute_core(pet)
    return {
        "fixture": "petersen",
        "prism_of_c5_isomorphic": iso,
        "aut_order_brute": brute.order,
        "aut_order_structured": structure.group.order,
        "ratio": structure.ratio.value,
        "is_core": core.is_core_itself,
    }


def _verify_f9() -> dict:
    out = {"fixture": "figure_f9"}
    for i in (1, 2, 3, 4):
        g = figure_f9(i)
        antis = find_antimorphisms(g, limit=1)
        order, fixed = antimorphism_facts(antis[0], g)
        entry = {
            "self_complementary": bool(antis),
            "antimorphism_order": order,
            "fixed_points": len(fixed),
        }
        rep = srg_analysis(g)
        if rep.srg_params:
            p = rep.srg_params
            entry["srg"] = [p.n, p.k, p.lam, p.mu]
        if rep.witness is not None:
            entry["walk_regularity_witness_power"] = rep.witness.power
        entry["kappa"] = vertex_connectivity(g)[0]
        out[f"f9_{i}"] = entry
    return out


FIXTURE_CHECKS = {
    "exa1": _verify_exa1,
    "mysterious505": _verify_mysterious505,
    "petersen": _verify_petersen,
    "f9": _verify_f9,
}


def cmd_verify_fixture(args) -> dict:
    if args.fixture not in FIXTURE_CHECKS:
        raise InputError(
            f"unknown fixture {args.fixture!r}; choose from {sorted(FIXTURE_CHECKS)}"
        )
    return FIXTURE_CHECKS[args.fixture]()


def _all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _sweep_cases(n: int):
    """(base, closed-form Cheeger value, prism) for each labeled graph on n
    vertices, once the prism's structured automorphism group is checked."""
    for g in _all_graphs(n):
        structure = structured_prism_aut(g)
        structure.check(automorphism_group(structure.prism))
        yield g, cheeger_closed_form(g, prism=structure.prism).value, structure.prism


def cmd_sweep(args) -> dict:
    """Cross-oracle battery over every labeled graph on <= max-n vertices."""
    require_positive("--max-n", args.max_n)
    checked = 0
    t0 = time.perf_counter()
    for n in range(1, args.max_n + 1):
        # one brute-force table per slice of same-order prisms, not per prism;
        # the batch reads a slice ahead, and tee keeps only that slice
        cases, ahead = tee(_sweep_cases(n))
        brute_reports = cheeger_brute_force_batch(prism for _, _, prism in ahead)
        for (g, value, _), brute in zip(cases, brute_reports, strict=True):
            if value != brute.value:
                raise AssertionError(f"Cheeger mismatch on {g.adj}")
            checked += 1
    return {
        "command": "sweep",
        "max_n": args.max_n,
        "graphs_checked": checked,
        "failures": 0,
        "seconds": round(time.perf_counter() - t0, 1),
    }


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", help="named constructor, e.g. paley:9, cycle:5, mysterious505")
    p.add_argument("--g6", help="graph6 string (otherwise read from stdin)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="prismatic",
        description="complementary prisms: constructions, automorphisms, cores, spectra, expansion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_input_flags(p)
        p.set_defaults(fn=fn)
        return p

    p = add("construct", cmd_graph6, help="emit a named graph as graph6")
    p.add_argument("--json", action="store_true", help="JSON report instead of bare graph6")
    p = add("prism", cmd_graph6, help="emit the complementary prism as graph6")
    p.add_argument("--json", action="store_true", help="JSON report instead of bare graph6")
    add("aut", cmd_aut, help="automorphism group; recognizes prism labelings")
    p = add("antimorph", cmd_antimorph, help="antimorphisms (isomorphisms onto the complement)")
    p.add_argument("--limit", type=int, default=None, help="stop after this many")
    p = add("core", cmd_core, help="compute the core by retraction descent")
    p.add_argument("--prism", action="store_true", help="take the prism of the input first")
    p.add_argument("--budget-nodes", type=int, help="search node budget")
    add("classify", cmd_classify, help="family membership, ratio class, prism predicates")
    p = add("cheeger", cmd_cheeger, help="Cheeger number (closed form for prisms)")
    p.add_argument("--prism", action="store_true", help="closed form for the prism of the input")
    p.add_argument("--brute", action="store_true", help="force the brute-force cross-check")
    p = add("spectrum", cmd_spectrum, help="adjacency spectrum by LAPACK eigvalsh")
    p.add_argument("--prism-closed-form", action="store_true",
                   help="also compute the prism spectrum closed form and cross-check")
    add("srg", cmd_srg, help="strong regularity and 1-walk-regularity analysis")
    add("theta", cmd_theta, help="Lovasz theta eigenvalue bound for regular graphs")
    p = add("hamilton", cmd_hamilton, help="Hamiltonian path/cycle searches and constructions")
    p.add_argument("--mode", default="path", choices=["path", "cycle", "path_between", "connected"])
    p.add_argument("--endpoints", help="U,V for path_between")
    p.add_argument("--constructions", action="store_true",
                   help="spliced prism Hamiltonian constructions for the input base graph")
    p.add_argument("--budget-nodes", type=int, help="search node budget")
    add("invariants", cmd_invariants, help="alpha, omega, chi, kappa with witnesses")
    p = sub.add_parser("verify-fixture", help="run a fixture's verification battery")
    p.add_argument("fixture", help="exa1, mysterious505, petersen, or f9")
    p.set_defaults(fn=cmd_verify_fixture)
    p = sub.add_parser("sweep", help="cross-oracle battery over all small graphs")
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command and print its report; the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        if isinstance(report, dict):
            emit(report)
        else:
            print(report)
        return 0
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
