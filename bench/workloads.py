"""Request lists for the three workloads, built from the frozen base graphs.

Every input reaches the program as argv for ``prismatic.cli.main``.  Graphs
travel as graph6 text that this module encodes itself, so the inputs do not
change when the program's own codec changes.  A workload seed only picks
vertex relabellings and the order of requests; the base graphs and the
reference answers come from ``reference.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("sweep", "queries", "large")

# Commands per base graph in ``queries``.  Each kind maps to the argv that
# carries the graph: "g" is the relabelled base, "p" its complementary prism
# in the standard layout (base, complement, matching).
QUERY_KINDS = {
    "aut": ["aut", "--g6", "g"],
    "autP": ["aut", "--g6", "p"],
    "antimorph": ["antimorph", "--g6", "g"],
    "classify": ["classify", "--g6", "g"],
    "cheegerP": ["cheeger", "--prism", "--g6", "g"],
    "spectrum": ["spectrum", "--g6", "g"],
    "spectrumP": ["spectrum", "--prism-closed-form", "--g6", "g"],
    "srg": ["srg", "--g6", "g"],
    "theta": ["theta", "--g6", "g"],
    "invariants": ["invariants", "--g6", "g"],
    "invariantsP": ["invariants", "--g6", "p"],
    "hamiltonC": ["hamilton", "--constructions", "--g6", "g"],
    "coreP": ["core", "--prism", "--g6", "g"],
}

# Largest base for ``hamilton --constructions`` in ``queries``: on the
# 14-vertex random base its time ranged 1.0-4.1 s over eight labellings.
HAMILTON_MAX_N = 13
# ``core --prism`` only on bases this small, as the workload prescribes.
CORE_MAX_N = 7

# (kind, base) pairs of ``large``; the seed relabels each base per pass.
LARGE_REQUESTS = (
    ("autP", "paley:29"),
    ("aut", "kneser:7:3"),
    ("coreP", "paley:9"),
    ("coreP", "figure_f9:1"),
    ("invariantsP", "paley:17"),
)
# Requests of ``large`` that name a fixed graph and take no input.
LARGE_FIXED = (
    ("fixture", ["verify-fixture", "mysterious505"]),
    ("prism505", ["prism", "--name", "mysterious505"]),
)


@dataclass(frozen=True)
class Request:
    argv: list[str]
    ref: str  # "<kind>|<base>", the key of the reference answer; "" for a bad request
    bad: bool = False

    @property
    def kind(self) -> str:
        return self.ref.split("|")[0]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


# -- graphs as (n, adjacency bitsets) --------------------------------------


def _size_prefix(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n < 1 << 18:
        return [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    raise ValueError(f"graph6 size {n} out of range")


def decode_graph6(text: str) -> tuple[int, list[int]]:
    data = text.encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    adj = [0] * n
    k = 0
    for col in range(1, n):
        for row in range(col):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            k += 1
    return n, adj


def encode_graph6(n: int, adj: list[int]) -> str:
    out = _size_prefix(n)
    acc = nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def relabel(n: int, adj: list[int], perm: list[int]) -> list[int]:
    """Adjacency of the image graph under v -> perm[v]."""
    out = [0] * n
    for v in range(n):
        row = adj[v]
        for u in range(n):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def prism(n: int, adj: list[int]) -> list[int]:
    """Complementary prism: base on 0..n-1, complement on n..2n-1, matching i ~ n+i."""
    full = (1 << n) - 1
    rows = [row | 1 << (n + v) for v, row in enumerate(adj)]
    rows += [(full & ~row & ~(1 << v)) << n | 1 << v for v, row in enumerate(adj)]
    return rows


def random_inputs(g6: str, rng: random.Random) -> dict[str, str]:
    """graph6 of a seeded relabelling ("g") and of its prism ("p")."""
    n, adj = decode_graph6(g6)
    perm = list(range(n))
    rng.shuffle(perm)
    adj = relabel(n, adj, perm)
    return {"g": encode_graph6(n, adj), "p": encode_graph6(2 * n, prism(n, adj))}


def query_kinds(n: int, regular: bool) -> list[str]:
    kinds = ["aut", "autP", "antimorph", "classify", "cheegerP", "invariants"]
    kinds += ["spectrumP", "srg", "theta"] if regular else ["spectrum"]
    if n <= HAMILTON_MAX_N:
        kinds.append("hamiltonC")
    if n <= CORE_MAX_N:
        kinds.append("coreP")
    return kinds


def request(kind: str, base: str, inputs: dict[str, str]) -> Request:
    argv = [inputs.get(a, a) for a in QUERY_KINDS[kind]]
    return Request(argv, f"{kind}|{base}")


def bad_requests(ref: dict, rng: random.Random) -> list[Request]:
    """One of each malformed or out-of-precondition request.

    All five must end in exit 2 with a single ``error:`` line.  The last
    three are library preconditions: Cheeger brute force on more than 20
    vertices, the theta bound of a non-regular graph, and a Hamiltonian
    path between equal endpoints.
    """
    bases = ref["bases"]
    prism26 = random_inputs(bases["paley:13"]["g6"], rng)["p"]
    irregular = random_inputs(bases["path:5"]["g6"], rng)["g"]
    cycle = random_inputs(bases["cycle:7"]["g6"], rng)["g"]
    return [
        Request(["invariants", "--g6", "Dx"], "", bad=True),
        Request(["aut", "--name", "nosuch:3"], "", bad=True),
        Request(["cheeger", "--g6", prism26], "", bad=True),
        Request(["theta", "--g6", irregular], "", bad=True),
        Request(["hamilton", "--mode", "path_between", "--endpoints", "0,0", "--g6", cycle], "", bad=True),
    ]


def make_pass(workload: str, seed: int, index: int, ref: dict) -> list[Request]:
    """The request list of pass ``index``; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sweep":
        return [Request(["sweep", "--max-n", "5"], "sweep|5")]
    bases = ref["bases"]
    if workload == "large":
        reqs = [request(kind, base, random_inputs(bases[base]["g6"], rng))
                for kind, base in LARGE_REQUESTS]
        return reqs + [Request(argv, f"{key}|mysterious505") for key, argv in LARGE_FIXED]
    if workload == "queries":
        reqs = []
        for base in ref["query_bases"]:
            info = bases[base]
            inputs = random_inputs(info["g6"], rng)
            reqs += [request(kind, base, inputs) for kind in query_kinds(info["n"], info["regular"])]
        reqs += bad_requests(ref, rng)
        rng.shuffle(reqs)
        return reqs
    raise ValueError(f"unknown workload {workload!r}")
