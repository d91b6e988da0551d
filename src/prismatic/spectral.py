"""Adjacency spectra, strong regularity, and eigenvalue bounds.

Two independent routes to prism spectra are kept deliberately separate: a
numeric eigensolver (LAPACK ``eigvalsh`` on the adjacency matrix) and the
closed form for the complementary prism of a regular graph.  Tests compare
the two; neither is ever derived from the other.

For a k-regular graph G on n vertices with adjacency eigenvalues
k = l1 >= l2 >= ... >= ln, the prism spectrum is

    (n - 1 +- sqrt((n - 1 - 2k)^2 + 4)) / 2        (one pair, from l1)
    (-1 +- sqrt((2 li + 1)^2 + 4)) / 2             (one pair per i >= 2)

The first pair comes from the all-ones vector, an eigenvector of every
regular graph, and the others from eigenvectors orthogonal to it, so G
need not be connected: a further eigenvalue k of a disconnected G gives a
pair of the second kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph
from .morphisms import is_self_complementary

# numpy is imported inside the three functions that call it, so a
# command that never reaches them starts without paying for the import.

MULTIPLICITY_TOL = 1e-7
PRISM_SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of one graph, sorted descending."""

    n: int
    eigenvalues: tuple[float, ...]

    def multiplicity_pairs(self) -> list[tuple[float, int]]:
        """Bin the sorted eigenvalue list into (value, multiplicity) pairs,
        joining values within MULTIPLICITY_TOL of the running mean."""
        pairs: list[tuple[float, int]] = []
        for x in self.eigenvalues:
            if pairs and abs(pairs[-1][0] - x) <= MULTIPLICITY_TOL:
                v, m = pairs[-1]
                pairs[-1] = ((v * m + x) / (m + 1), m + 1)
            else:
                pairs.append((x, 1))
        return pairs


def adjacency_matrix(g: Graph) -> np.ndarray:
    import numpy as np

    m = np.zeros((g.n, g.n), dtype=np.int64)
    for v, u in g.edges():
        m[v, u] = m[u, v] = 1
    return m


def numeric_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the adjacency matrix by LAPACK ``eigvalsh``."""
    import numpy as np

    eigs = np.linalg.eigvalsh(adjacency_matrix(g))  # ascending
    return SpectrumReport(n=g.n, eigenvalues=tuple(float(x) for x in eigs[::-1]))


def _regular_degree(g: Graph) -> int:
    """The common degree of a regular graph; ValueError for the null graph
    or a graph that is not regular."""
    if g.n == 0:
        raise ValueError("empty vertex set")
    if not g.is_regular():
        raise ValueError("requires a regular graph")
    return g.degrees()[0]


def prism_spectrum_closed_form(g: Graph) -> SpectrumReport:
    """Spectrum of the complementary prism of a regular graph."""
    k = _regular_degree(g)
    n = g.n
    base = numeric_spectrum(g).eigenvalues  # descending; base[0] == k
    disc = math.sqrt((n - 1 - 2 * k) ** 2 + 4)
    values = [(n - 1 + disc) / 2, (n - 1 - disc) / 2]
    for lam in base[1:]:
        d = math.sqrt((2 * lam + 1) ** 2 + 4)
        values.append((-1 + d) / 2)
        values.append((-1 - d) / 2)
    values.sort(reverse=True)
    if len(values) != 2 * n:
        raise AssertionError("closed form gives the wrong number of eigenvalues")
    return SpectrumReport(n=2 * n, eigenvalues=tuple(values))


# ---------------------------------------------------------------------------
# Strong regularity and 1-walk-regularity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def feasible(self) -> bool:
        return self.k * (self.k - self.lam - 1) == (self.n - self.k - 1) * self.mu


@dataclass(frozen=True)
class WalkRegularityWitness:
    """A concrete violation of 1-walk-regularity.

    ``kind`` is "diagonal" when two vertices have different closed-walk
    counts at the given power, "edge" when two edges have different walk
    counts.
    """

    power: int
    kind: str
    entries: tuple


@dataclass(frozen=True)
class SrgAnalysis:
    """``witness`` is the first diagonal violation of 1-walk-regularity,
    else the first edge violation, and None when the graph is
    1-walk-regular; ``edge_witness`` is the first edge violation."""

    srg_params: SrgParams | None
    srg_sc_eigen: tuple[float, float, float] | None
    witness: WalkRegularityWitness | None
    edge_witness: WalkRegularityWitness | None

    @property
    def one_walk_regular(self) -> bool:
        return self.witness is None


def srg_params(g: Graph) -> SrgParams | None:
    """Strongly-regular parameters by direct common-neighbor counting."""
    n = g.n
    if n < 2 or not g.is_regular():
        return None
    k = g.degrees()[0]
    lam = mu = None
    for v in range(n):
        av = g.adj[v]
        for u in range(v + 1, n):
            common = (av & g.adj[u]).bit_count()
            if g.has_edge(v, u):
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None or mu is None:
        # complete or empty graph: not strongly regular in the strict sense
        return None
    return SrgParams(n, k, lam, mu)


def _srg_implies_walk_regular(g: Graph, p: SrgParams) -> bool:
    """Exact check of A^2 = kI + lam*A + mu*(J - I - A).

    For a regular graph satisfying this identity, every power of A lies in
    span{I, A, J} with integer coefficients (AJ = kJ closes the algebra),
    so all diagonal entries agree and all edge entries agree at every
    power: the graph is 1-walk-regular.
    """
    import numpy as np

    a = adjacency_matrix(g)
    j = np.ones_like(a)
    i = np.eye(g.n, dtype=np.int64)
    lhs = a @ a
    rhs = p.k * i + p.lam * a + p.mu * (j - i - a)
    return bool((lhs == rhs).all())


def _walk_regularity_scan(g: Graph):
    """Return (diagonal_witness, edge_witness), either possibly None.

    Scans exact integer powers A^2 .. A^n, which is definitive since A^n is
    a linear combination of lower powers.  Integer
    arithmetic switches from int64 to arbitrary precision before any
    overflow is possible.
    """
    n = g.n
    edges = list(g.edges())
    a64 = adjacency_matrix(g)
    power = a64.copy()
    exact = None  # object-dtype fallback once int64 could overflow
    diag_w = edge_w = None
    kmax = max(g.degrees(), default=0)
    for i in range(2, n + 1):
        if exact is None:
            if int(power.max()) * max(kmax, 1) * n < 2**62:
                power = power @ a64
            else:
                exact = power.astype(object)
                exact = exact @ a64.astype(object)
                power = None
        else:
            exact = exact @ a64.astype(object)
        m = power if exact is None else exact
        if diag_w is None:
            d0 = m[0, 0]
            for v in range(1, n):
                if m[v, v] != d0:
                    diag_w = WalkRegularityWitness(
                        power=i, kind="diagonal", entries=((0, int(d0)), (v, int(m[v, v])))
                    )
                    break
        if edge_w is None and edges:
            e0 = m[edges[0][0], edges[0][1]]
            for v, u in edges[1:]:
                if m[v, u] != e0:
                    edge_w = WalkRegularityWitness(
                        power=i,
                        kind="edge",
                        entries=((edges[0], int(e0)), ((v, u), int(m[v, u]))),
                    )
                    break
        if diag_w is not None:
            break
    return diag_w, edge_w


def srg_analysis(g: Graph) -> SrgAnalysis:
    """Strong regularity, 1-walk-regularity, and the self-complementary
    eigenvalue triple, in one report.

    1-walk-regularity is decided by scanning exact powers of the adjacency
    matrix up to the n-th, which is definitive.  When the graph is strongly
    regular the scan is replaced by an exact check of the defining matrix
    identity, which implies 1-walk-regularity for all powers at once.  The reported witness is the first diagonal violation
    when one exists (two vertices with different closed-walk counts),
    otherwise the first edge violation.
    """
    params = srg_params(g)
    sc_eigen = witness = edge_w = None
    if params is not None:
        if not params.feasible():
            raise AssertionError(f"counted parameters infeasible: {params}")
        if not _srg_implies_walk_regular(g, params):
            raise AssertionError("strongly regular counts but matrix identity failed")
        if is_self_complementary(g):
            n = params.n
            expected = SrgParams(n, (n - 1) // 2, (n - 5) // 4, (n - 1) // 4)
            if params != expected:
                raise AssertionError(
                    f"self-complementary SRG parameters {params} not of the form {expected}"
                )
            r = math.sqrt(n)
            sc_eigen = ((n - 1) / 2, (r - 1) / 2, (-r - 1) / 2)
    else:
        diag_w, edge_w = _walk_regularity_scan(g)
        witness = diag_w or edge_w
    return SrgAnalysis(params, sc_eigen, witness, edge_w)


# ---------------------------------------------------------------------------
# Lovasz theta bounds.
# ---------------------------------------------------------------------------


def theta_bounds(g: Graph) -> tuple[float, float]:
    """(upper bound on theta(g), implied lower bound on theta(complement)).

    For a k-regular graph, theta(g) <= n(-ln)/(k - ln) = n/(1 - k/ln) with
    ln the smallest adjacency eigenvalue; combined with
    theta(g) * theta(complement) >= n this yields a lower bound n/upper
    for the complement.  The empty graph (k = 0) has theta = n exactly.
    """
    k = _regular_degree(g)
    if k == 0:
        return float(g.n), 1.0
    lam_min = numeric_spectrum(g).eigenvalues[-1]
    upper = g.n / (1.0 - k / lam_min)
    return upper, g.n / upper

