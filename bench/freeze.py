"""Regenerate ``reference.json``: base graphs and label-invariant answers.

    PYTHONPATH=src python3 bench/freeze.py

Each answer is computed by ``prismatic.cli.main`` on the base graph as
built, then again on four seeded relabellings, which must give the same key.
Where an independent oracle exists the frozen value is checked against it:
``vertex_connectivity_brute`` for kappa on at most 12 vertices, Cheeger brute
force on prisms of at most 20 vertices, and for prism spectra the closed
form against both the Jacobi solver and ``numpy.linalg.eigvalsh``.  Run it
only when a deliberate change of the answers is intended.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import prismatic.cli as cli  # noqa: E402
from answers import FLOAT_TOL, answer_key, same_answer  # noqa: E402
from prismatic.families import apex_pair_graph, named_graph, pendant_pair_graph  # noqa: E402
from prismatic.graphio import write_graph6  # noqa: E402
from prismatic.graphs import build_graph, complementary_prism  # noqa: E402
from prismatic.spectral import numeric_spectrum  # noqa: E402
from prismatic.structural import cheeger_brute_force, vertex_connectivity_brute  # noqa: E402
from worker import run_request  # noqa: E402
from workloads import (  # noqa: E402
    LARGE_FIXED, LARGE_REQUESTS, QUERY_KINDS, REFERENCE_PATH, decode_graph6, encode_graph6,
    prism, query_kinds, random_inputs,
)

FAMILY_INNER = ("empty:1", "complete:2", "empty:2", "path:3", "complete:3", "cycle:4", "star:4")
RELABELLINGS = 4


def query_pool() -> dict:
    pool = {f"paley:{q}": named_graph(f"paley:{q}") for q in (5, 9, 13, 17)}
    pool |= {f"cycle:{n}": named_graph(f"cycle:{n}") for n in range(5, 10)}
    pool |= {f"path:{n}": named_graph(f"path:{n}") for n in range(4, 9)}
    pool |= {f"star:{n}": named_graph(f"star:{n}") for n in range(4, 8)}
    for inner in FAMILY_INNER:
        pool[f"pendant_pair({inner})"] = pendant_pair_graph(named_graph(inner))
        pool[f"apex_pair({inner})"] = apex_pair_graph(named_graph(inner))
    pool |= {f"figure_f9:{i}": named_graph(f"figure_f9:{i}") for i in range(1, 5)}
    for n in range(8, 15):  # one fixed G(n, 1/2) per order
        rng = random.Random(f"gnp:{n}")
        edges = [(a, b) for b in range(n) for a in range(b) if rng.random() < 0.5]
        pool[f"gnp:{n}"] = build_graph(n, edges)
    return pool


def answer(kind: str, argv: list[str]) -> dict:
    _, rc, out, err, error = run_request(cli.main, argv)
    if error is not None or rc != 0:
        raise SystemExit(f"{argv[:3]} failed while freezing: rc={rc} {error or err}")
    return answer_key(kind, argv, out)


def frozen_answer(kind: str, g6: str, seed: str) -> dict:
    n, adj = decode_graph6(g6)
    inputs = {"g": g6, "p": encode_graph6(2 * n, prism(n, adj))}
    key = answer(kind, [inputs.get(a, a) for a in QUERY_KINDS[kind]])
    rng = random.Random(seed)
    for _ in range(RELABELLINGS):
        inputs = random_inputs(g6, rng)
        again = answer(kind, [inputs.get(a, a) for a in QUERY_KINDS[kind]])
        if not same_answer(key, again):
            raise SystemExit(f"{seed}: key is not label-invariant: {key} vs {again}")
    return key


def require(ok: bool, kind: str, graph) -> None:
    if not ok:
        raise SystemExit(f"{kind} on {graph!r} disagrees with its independent oracle")


def check_oracles(kind: str, graph, key: dict) -> None:
    target = complementary_prism(graph) if kind.endswith("P") else graph
    if kind.startswith("invariants") and target.n <= 12:
        require(key["kappa"] == vertex_connectivity_brute(target), kind, graph)
    if kind == "cheegerP" and 2 * graph.n <= 20:
        brute = cheeger_brute_force(complementary_prism(graph)).value
        value = key["value"]
        require((value["numerator"], value["denominator"]) == (brute.numerator, brute.denominator), kind, graph)
    if kind == "spectrumP":
        closed = sorted(v for v, m in key["prism_closed_form"] for _ in range(m))
        pg = complementary_prism(graph)
        jacobi = sorted(numeric_spectrum(pg).eigenvalues)
        rows = np.array([[1.0 if pg.has_edge(u, v) else 0.0 for v in range(pg.n)] for u in range(pg.n)])
        lapack = sorted(np.linalg.eigvalsh(rows))
        for other in (jacobi, lapack):
            require(max(abs(a - b) for a, b in zip(closed, other)) <= FLOAT_TOL, kind, graph)


def main() -> int:
    pool = query_pool()
    extra = {base: named_graph(base) for _, base in LARGE_REQUESTS if base not in pool}
    bases = {
        name: {"g6": write_graph6(g), "n": g.n, "regular": len(set(g.degrees())) <= 1}
        for name, g in (pool | extra).items()
    }
    answers = {}
    for name, g in pool.items():
        info = bases[name]
        for kind in query_kinds(info["n"], info["regular"]):
            key = frozen_answer(kind, info["g6"], f"{kind}|{name}")
            check_oracles(kind, g, key)
            answers[f"{kind}|{name}"] = key
        print(f"froze {name}", file=sys.stderr)
    for kind, base in LARGE_REQUESTS:
        key = frozen_answer(kind, bases[base]["g6"], f"{kind}|{base}")
        check_oracles(kind, (pool | extra)[base], key)
        answers[f"{kind}|{base}"] = key
        print(f"froze {kind}|{base}", file=sys.stderr)
    for name, argv in LARGE_FIXED:
        answers[f"{name}|mysterious505"] = answer(name, argv)
    answers["sweep|5"] = answer("sweep", ["sweep", "--max-n", "5"])
    reference = {
        "float_tolerance": FLOAT_TOL,
        "query_bases": list(pool),
        "bases": bases,
        "answers": answers,
    }
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(answers)} answers to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
