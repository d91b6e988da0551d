"""Label-invariant answer keys and the checker that compares them.

A key keeps only the fields of a CLI report that do not depend on how the
input graph was labelled: group orders, orbit sizes, the ratio class, core
size, alpha/omega/chi/kappa, Cheeger values, spectra, SRG
parameters.  Witness vertex lists are dropped.  Floats compare within
``FLOAT_TOL`` (absolute and relative); everything else compares exactly.
"""

from __future__ import annotations

import hashlib
import json
import math

FLOAT_TOL = 1e-9


def _pick(report: dict, *names: str) -> dict:
    return {k: report[k] for k in names if k in report}


def _aut(r: dict) -> dict:
    key = _pick(r, "n", "order", "transitive")
    key["orbit_sizes"] = sorted(len(o) for o in r["orbits"])
    return key


def _aut_prism(r: dict) -> dict:
    key = _aut(r)
    key["prism_of"] = _pick(r["prism_of"], "n", "base_aut_order", "ratio", "ratio_reason", "structure")
    return key


def _classify(r: dict) -> dict:
    key = _pick(
        r, "n", "self_complementary", "prism_aut_order", "prism_aut_structure", "ratio",
        "ratio_reason", "prism_vertex_transitive", "prism_is_cayley", "prism_diameter",
        "prism_not_lex_product",
    )
    key["family_matches"] = sorted([m["kind"], m["inner_size"]] for m in r["family_matches"])
    return key


def _spectrum(r: dict) -> dict:
    key = _pick(r, "n", "numeric", "prism_closed_form")
    if "prism_numeric_max_diff" in r:
        key["prism_numeric_agrees"] = r["prism_numeric_max_diff"] <= FLOAT_TOL
    return key


def _srg(r: dict) -> dict:
    key = _pick(r, "n", "strongly_regular", "one_walk_regular", "parameters", "self_complementary_eigenvalues")
    if "witness" in r:
        key["witness_power"] = r["witness"]["power"]
    return key


def _hamilton(r: dict) -> dict:
    key = _pick(r, "n", "prism_ham_connected_pairs", "notes")
    path = r.get("prism_p8_path")
    key["prism_path_length"] = len(path) if path else 0
    return key


# Keyed by request kind, else by command.  Plain ``aut`` leaves out
# ``prism_of``: the CLI adds it whenever the labelling happens to be a prism
# layout, which a relabelled P4 sometimes is.  ``autP`` sends that layout on
# purpose and must report it.
KEYS = {
    "aut": _aut,
    "autP": _aut_prism,
    "antimorph": lambda r: _pick(r, "n", "self_complementary", "found"),
    "classify": _classify,
    "cheeger": lambda r: _pick(r, "base_n", "n", "value", "method", "brute_force_value"),
    "spectrum": _spectrum,
    "srg": _srg,
    "theta": lambda r: _pick(r, "n", "upper_bound", "complement_lower_bound"),
    "invariants": lambda r: _pick(r, "n", "alpha", "omega", "chi", "kappa", "exact"),
    "hamilton": _hamilton,
    # The core-placement case is left out: on some bases (the apex-pair graph
    # over one vertex) it changes with the labelling.
    "core": lambda r: _pick(r, "n", "status", "core_size", "is_core_itself"),
    "sweep": lambda r: _pick(r, "max_n", "graphs_checked", "failures"),
    "verify-fixture": lambda r: {k: v for k, v in r.items() if k != "seconds"},
}


def answer_key(kind: str, argv: list[str], stdout: str) -> dict:
    """The label-invariant part of the answer printed for a request of ``kind``."""
    if argv[0] == "prism":
        text = stdout.strip()
        return {"graph6_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(), "bytes": len(text)}
    return KEYS.get(kind, KEYS[argv[0]])(json.loads(stdout))


def same_answer(expected, actual) -> bool:
    """Equal, with floats equal within FLOAT_TOL and bools never equal to numbers."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(actual, (int, float)) and not isinstance(actual, bool)
            and math.isclose(expected, actual, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict) and expected.keys() == actual.keys()
            and all(same_answer(v, actual[k]) for k, v in expected.items())
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list) and len(expected) == len(actual)
            and all(same_answer(a, b) for a, b in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def check_valid(kind: str, argv: list[str], expected: dict, rc, stdout: str, error: str | None) -> str | None:
    """None if a valid request of ``kind`` produced the reference answer, else why not."""
    if error is not None:
        return f"exception escaped main: {error}"
    if rc != 0:
        return f"exit code {rc}"
    try:
        got = answer_key(kind, argv, stdout)
    except (ValueError, KeyError, TypeError) as e:
        return f"answer missing or unreadable: {type(e).__name__}: {e}"
    if not same_answer(expected, got):
        return f"answer differs from reference: {json.dumps(got, sort_keys=True)[:300]}"
    return None


def check_bad(rc, stdout: str, stderr: str, error: str | None) -> str | None:
    """None if a deliberately bad request ended in exit 2 with one ``error:`` line."""
    if error is not None:
        return f"exception escaped main: {error}"
    lines = stderr.strip().splitlines()
    if rc != 2 or len(lines) != 1 or not lines[0].startswith("error:") or stdout:
        return f"exit code {rc} with stderr {stderr.strip()[:200]!r}"
    return None
