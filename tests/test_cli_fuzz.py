"""Fuzz ``cli.main`` with argv that argparse accepts.

Every call must return 0 or 2.  A 2 must come with empty stdout and exactly
one ``error:`` line on stderr, and no exception may escape ``main``.  Graphs
arrive as graph6 of random graphs on at most seven vertices, as malformed
text, as small named graphs, or not at all (stdin is empty).  Values that
start with "-" are passed as ``--flag=value`` so that argparse takes them as
values.
"""

import io
import itertools
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from prismatic.cli import main
from prismatic.graphio import write_graph6
from prismatic.graphs import build_graph


@st.composite
def graph6_of_small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return write_graph6(build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))


GRAPH_INPUT = st.one_of(
    graph6_of_small_graphs().map(lambda s: [f"--g6={s}"]),
    st.text(max_size=6).map(lambda s: [f"--g6={s}"]),
    st.sampled_from(["cycle:5", "path:3", "complete:0", "star:0", "paley:8", "nosuch", ""]).map(
        lambda s: [f"--name={s}"]
    ),
    st.just([]),
)
SMALL_INTS = st.integers(-3, 5)
BUDGETS = st.integers(-3, 400)
ENDPOINTS = st.sampled_from(["0,1", "1,0", "2,2", "0,6", "6,9", "-1,2", "1", "a,b", "1,2,3", ","])

# Optional flags of each graph command: None for a switch, else the values.
COMMAND_FLAGS = {
    "construct": {"--json": None},
    "prism": {"--json": None},
    "aut": {},
    "antimorph": {"--limit": SMALL_INTS},
    "core": {"--prism": None, "--budget-nodes": BUDGETS},
    "classify": {},
    "cheeger": {"--prism": None, "--brute": None},
    "spectrum": {"--prism-closed-form": None},
    "srg": {},
    "theta": {},
    "hamilton": {
        "--mode": st.sampled_from(["path", "cycle", "path_between", "connected"]),
        "--endpoints": ENDPOINTS,
        "--constructions": None,
        "--budget-nodes": BUDGETS,
    },
    "invariants": {},
}


@st.composite
def accepted_argv(draw):
    command = draw(st.sampled_from([*COMMAND_FLAGS, "verify-fixture", "sweep"]))
    if command == "verify-fixture":
        fixture = draw(st.sampled_from(["exa1", "mysterious505", "petersen", "f9", "nosuch"]))
        return [command, fixture]
    if command == "sweep":
        return [command, f"--max-n={draw(st.integers(-2, 3))}"]
    argv = [command, *draw(GRAPH_INPUT)]
    for flag, values in COMMAND_FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(accepted_argv())
def test_main_exits_0_or_2_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(argv)
    out = capsys.readouterr()
    assert code in (0, 2), argv
    if code == 2:
        assert out.out == "", argv
        assert out.err.startswith("error: ") and out.err.count("\n") == 1, (argv, out.err)
