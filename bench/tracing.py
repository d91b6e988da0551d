"""Spans around the public functions of each prismatic module.

The tracer replaces each listed function in its defining module and in every
``prismatic`` namespace that imported it by name, and patches ``Graph``
methods on the class.  A span records its name, the request it belongs to,
its start, its end and its parent span.  Spans stay in memory until their
traced pass ends, when they are folded into per-function totals; the spans
of the first traced pass are kept and written out when the run ends.  A
span's self time is its duration minus the durations of its child spans,
so the self times inside one ``cli.main`` span add up to that span by
construction: every request enters through ``cli.main``, so the module self
times of a pass add up to ``cli.main.total_s``.

``bits``, ``Graph.has_edge`` and ``Graph.neighbors`` are deliberately not
wrapped: one request calls them tens of millions of times, so a wrapper
would cost more than the work it measures.  Their time lands in the self
time of the wrapped caller.
"""

from __future__ import annotations

import sys
import time


# (module, attribute path, stat, value of one call) for every span.  A stat
# ending in ``_frac`` is reported per call, any other per traced pass.
TARGETS = (
    ("graphs", "Graph.__init__", None, None),
    ("graphs", "Graph.induced", None, None),
    ("graphs", "Graph.complement", None, None),
    ("graphs", "complementary_prism", None, None),
    ("graphio", "parse_graph6", "bytes", lambda args, result: len(args[0])),
    ("graphio", "write_graph6", "bytes", lambda args, result: len(result)),
    ("families", "named_graph", None, None),
    ("families", "family_graph", None, None),
    ("families", "mysterious505", None, None),
    ("morphisms", "find_isomorphisms", "maps", lambda args, result: len(result)),
    ("morphisms", "find_homomorphism", "found_frac", lambda args, result: result is not None),
    ("morphisms", "compute_core", None, None),
    ("morphisms", "group_tools", "elements", lambda args, result: result.order),
    ("morphisms", "is_isomorphism_map", None, None),
    ("morphisms", "is_homomorphism", None, None),
    ("morphisms", "verify_retraction", None, None),
    ("morphisms", "has_regular_subgroup", None, None),
    ("prisms", "detect_family", "match_frac", lambda args, result: bool(result)),
    ("prisms", "structured_prism_aut", None, None),
    ("prisms", "ratio_class", None, None),
    ("prisms", "prism_predicates", None, None),
    ("prisms", "not_lex_product_check", None, None),
    ("prisms", "classify_core_case", None, None),
    ("spectral", "numeric_spectrum", None, None),
    ("spectral", "prism_spectrum_closed_form", None, None),
    ("spectral", "srg_analysis", None, None),
    ("spectral", "theta_bounds", None, None),
    ("structural", "cheeger_brute_force", None, None),
    ("structural", "cheeger_closed_form", None, None),
    ("structural", "max_clique", None, None),
    ("structural", "chromatic_number", "exact_frac", lambda args, result: bool(result[2])),
    ("structural", "vertex_connectivity", None, None),
    ("structural", "hamiltonian", None, None),
    ("structural", "prism_ham_constructions", None, None),
    ("structural", "kneser_facts", None, None),
    ("cli", "main", None, None),
    ("cli", "emit", None, None),
)

MODULES = ("graphs", "graphio", "families", "morphisms", "prisms", "spectral", "structural", "cli")


def span_name(module: str, path: str) -> str:
    """``graphs.Graph`` for the constructor, ``module.function`` otherwise."""
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.names = [span_name(m, p) for m, p, _, _ in TARGETS]
        self.spans: list = []  # (name index, request, start, end, parent index)
        self.stats = [0] * len(TARGETS)
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.main_s = 0.0
        self.passes = 0
        self.kept: list | None = None
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, index: int, fn, value):
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, self.request, start, end, parent)
            if value is not None:
                stats[index] += value(args, result)
            return result

        return traced

    def install(self) -> None:
        for index, (module, path, _, value) in enumerate(TARGETS):
            owner = sys.modules[f"prismatic.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, value)
            if outer:  # a method: patch it on the class
                self._patch(owner, attr, original, wrapper)
                continue
            for name, namespace in list(sys.modules.items()):
                if name == "prismatic" or name.startswith("prismatic."):
                    for key, current in list(vars(namespace).items()):
                        if current is original:
                            self._patch(namespace, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def end_pass(self) -> None:
        """Fold the spans of one traced pass into the totals; keep the first pass's spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        main = self.names.index("cli.main")
        for i, (index, _, start, end, _) in enumerate(self.spans):
            self.calls[index] += 1
            self.self_s[index] += end - start - child[i]
            if index == main:
                self.main_s += end - start
        if self.kept is None:
            self.kept = list(self.spans)
        self.spans.clear()
        self.passes += 1

    def summary(self) -> dict[str, float]:
        """Per-layer figures per traced pass, named ``<module>.<function>.<stat>``."""
        passes = self.passes
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for index, (name, (module, _, stat, _)) in enumerate(zip(self.names, TARGETS)):
            calls, self_s = self.calls[index], self.self_s[index] / passes
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s
            module_self[module] += self_s
            if stat is None:
                continue
            if stat.endswith("_frac"):
                out[f"{name}.{stat}"] = self.stats[index] / calls if calls else 0.0
            else:
                out[f"{name}.{stat}"] = self.stats[index] / passes
        for module, value in module_self.items():
            out[f"{module}.self_s"] = value
        out["cli.main.total_s"] = self.main_s / passes
        return out

    def write(self, path) -> None:
        """Spans of the first traced pass: a header naming the spans, then one line per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# name request start_ns end_ns parent; names: " + " ".join(self.names) + "\n")
            for index, request, start, end, parent in self.kept or ():
                fh.write(f"{index} {request} {int(start * 1e9)} {int(end * 1e9)} {parent}\n")
