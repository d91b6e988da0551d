import dataclasses
import importlib
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import prismatic
from prismatic import cli
from prismatic.cli import main
from prismatic.families import NAMED_GRAPHS, paley_graph
from prismatic.graphio import parse_graph6, write_graph6
from prismatic.graphs import build_graph, complementary_prism, cycle_graph


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv, stdin_text=None, monkeypatch=None):
    code, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert code == 0, err
    return json.loads(out)


def test_construct_emits_graph6(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--name", "cycle:5"])
    assert code == 0
    assert parse_graph6(out.strip()).adj == cycle_graph(5).adj


def test_construct_json_flag(capsys):
    report = run_json(capsys, ["construct", "--name", "paley:9", "--json"])
    assert report["n"] == 9 and report["edges"] == 18
    assert parse_graph6(report["graph6"]).adj == paley_graph(9).adj


def readme_name_grammar() -> list[str]:
    """The example names of README's ``--name`` grammar paragraph."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("The `--name` grammar", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([^`]+)`", paragraph)


@pytest.mark.parametrize("name", readme_name_grammar())
def test_construct_accepts_every_readme_name(capsys, name):
    report = run_json(capsys, ["construct", "--name", name, "--json"])
    assert report["n"] > 0


def test_readme_documents_every_named_graph():
    heads = {name.split(":")[0] for name in readme_name_grammar()}
    assert set(NAMED_GRAPHS) <= heads


def test_prism_command_builds_prism(capsys):
    code, out, _ = run_cli(capsys, ["prism", "--name", "cycle:5"])
    assert code == 0
    assert parse_graph6(out.strip()).adj == complementary_prism(cycle_graph(5)).adj


def test_prism_reads_stdin(capsys, monkeypatch):
    g6 = write_graph6(cycle_graph(4))
    code, out, _ = run_cli(capsys, ["prism"], stdin_text=g6 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert parse_graph6(out.strip()).n == 8


def test_pentagon_prism_pipeline_matches_worked_example(capsys, monkeypatch):
    # prism --name paley:5 | aut
    _, prism_g6, _ = run_cli(capsys, ["prism", "--name", "paley:5"])
    report = run_json(capsys, ["aut"], stdin_text=prism_g6, monkeypatch=monkeypatch)
    assert report["order"] == 120
    assert report["transitive"] is True
    assert report["prism_of"]["ratio"] == 12
    assert report["prism_of"]["base_aut_order"] == 10
    assert report["prism_of"]["structure"] == "S5"


def layout_by_definition(g):
    """The base graph when g is its complementary prism in the standard
    labeling, checked edge by edge against the definition; None otherwise."""
    if g.n == 0 or g.n % 2:
        return None
    n = g.n // 2
    if any(g.has_edge(v, n + u) != (v == u) for v in range(n) for u in range(n)):
        return None
    side1, side2 = g.induced(range(n)), g.induced(range(n, 2 * n))
    return side1 if side2 == side1.complement() else None


def test_detect_prism_layout_matches_the_definition():
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.randint(1, 7)
        p = rng.random()
        base = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        prism = complementary_prism(base)
        assert cli.detect_prism_layout(prism) == base == layout_by_definition(prism)
        # a random relabelling usually breaks the standard layout
        perm = list(range(2 * n))
        rng.shuffle(perm)
        relabelled = prism.relabel(perm)
        assert cli.detect_prism_layout(relabelled) == layout_by_definition(relabelled)
        if n >= 2:
            # move one matching edge {v, n+v} to {v, n+u}
            v, u = rng.sample(range(n), 2)
            edges = set(prism.edges()) - {(v, n + v)} | {(v, n + u)}
            moved = build_graph(2 * n, edges)
            assert cli.detect_prism_layout(moved) is None
            assert layout_by_definition(moved) is None


def test_aut_plain_graph(capsys):
    report = run_json(capsys, ["aut", "--name", "cycle:6"])
    assert report["order"] == 12
    assert "prism_of" not in report


def test_antimorph_command(capsys):
    report = run_json(capsys, ["antimorph", "--name", "paley:5"])
    assert report["found"] == 10
    assert report["self_complementary"] is True
    assert report["first"]["order"] == 4
    assert report["first"]["fixed_points"] == [0]


def test_antimorph_limit(capsys):
    report = run_json(capsys, ["antimorph", "--name", "paley:9", "--limit", "3"])
    assert report["found"] == 3


def test_antimorph_on_non_self_complementary(capsys):
    report = run_json(capsys, ["antimorph", "--name", "cycle:4"])
    assert report["found"] == 0
    assert report["self_complementary"] is False


def test_core_of_pentagon_prism(capsys):
    report = run_json(capsys, ["core", "--name", "cycle:5", "--prism"])
    assert report["status"] == "ok"
    assert report["case"] == "I_core"
    assert report["core_size"] == 10
    assert report["is_core_itself"] is True


def test_core_of_paley5_prism_needs_one_search(capsys):
    # the prism (the Petersen graph) is vertex-transitive: one failing
    # search proves it a core, where one per vertex needs 10.  It tries one
    # image per orbit of the stabiliser of the dropped vertex, so it takes
    # 4 nodes, where trying every image took 22
    argv = ["core", "--prism", "--name", "paley:5", "--budget-nodes"]
    report = run_json(capsys, argv + ["4"])
    assert report["status"] == "ok"
    assert report["is_core_itself"] is True
    assert report["case"] == "I_core"
    assert run_json(capsys, argv + ["3"])["status"] == "unknown"


def test_core_of_plain_graph(capsys):
    report = run_json(capsys, ["core", "--name", "cycle:6"])
    assert report["status"] == "ok"
    assert report["core_size"] == 2
    assert "case" not in report


def test_classify_family_member(capsys):
    report = run_json(capsys, ["classify", "--name", "path:4"])
    kinds = {m["kind"] for m in report["family_matches"]}
    assert kinds == {"C5", "A"}
    assert report["ratio"] == 4
    assert report["self_complementary"] is True
    assert report["prism_aut_structure"] == "SemidirectZ2"
    assert report["prism_aut_order"] == 8


def test_classify_pentagon(capsys):
    report = run_json(capsys, ["classify", "--name", "cycle:5"])
    assert report["ratio"] == 12
    assert report["prism_aut_order"] == 120
    assert report["prism_vertex_transitive"] is True
    assert report["prism_is_cayley"] is False
    assert report["prism_diameter"] == 2
    assert report["prism_not_lex_product"] is True


def test_classify_reports_the_lex_check_only_within_its_cut_off(capsys):
    # the check answers up to 16 prism vertices, bases of 8
    assert run_json(capsys, ["classify", "--name", "cycle:8"])["prism_not_lex_product"] is True
    assert "prism_not_lex_product" not in run_json(capsys, ["classify", "--name", "cycle:9"])


def count_prism_builds(capsys, monkeypatch, argv) -> tuple[list[int], dict]:
    """The base sizes of the prisms built while ``argv`` runs, and its report."""
    calls = []

    def counted(g):
        calls.append(g.n)
        return complementary_prism(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("prismatic"):
            if getattr(module, "complementary_prism", None) is complementary_prism:
                monkeypatch.setattr(module, "complementary_prism", counted)
    return calls, run_json(capsys, argv)


def test_classify_builds_the_prism_once(capsys, monkeypatch):
    calls, _ = count_prism_builds(capsys, monkeypatch, ["classify", "--name", "cycle:9"])
    assert calls == [9]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["aut", "--g6", write_graph6(complementary_prism(cycle_graph(7)))], "prism_of"),
        (["core", "--prism", "--name", "cycle:7"], "case"),
        (["cheeger", "--prism", "--name", "cycle:7"], "brute_force_value"),
        (["cheeger", "--prism", "--brute", "--name", "cycle:7"], "brute_force_value"),
    ],
    ids=["aut", "core-prism", "cheeger-prism", "cheeger-prism-brute"],
)
def test_prism_commands_build_the_prism_once(capsys, monkeypatch, argv, key):
    # each command reaches the step that reads the prism a second time
    calls, report = count_prism_builds(capsys, monkeypatch, argv)
    assert key in report
    assert calls == [7]


def test_cheeger_star_example(capsys):
    report = run_json(capsys, ["cheeger", "--name", "star:4", "--prism"])
    assert report["value"] == {"numerator": 3, "denominator": 4, "str": "3/4"}
    assert report["method"] == "closed_form"
    assert report["brute_force_value"] == report["value"]
    assert report["of"] == "complementary prism"


def test_cheeger_pentagon_prism(capsys):
    report = run_json(capsys, ["cheeger", "--name", "cycle:5", "--prism"])
    assert report["value"]["str"] == "1"


def test_cheeger_literal_graph(capsys):
    report = run_json(capsys, ["cheeger", "--name", "cycle:6"])
    assert report["value"] == {"numerator": 2, "denominator": 3, "str": "2/3"}
    assert report["method"] == "brute_force"
    assert len(report["witness_S"]) <= len(report["witness_T"])


def test_spectrum_with_closed_form_cross_check(capsys):
    report = run_json(capsys, ["spectrum", "--name", "paley:9", "--prism-closed-form"])
    assert report["prism_numeric_max_diff"] < 1e-9
    assert sum(mult for _, mult in report["prism_closed_form"]) == 18


def test_spectrum_plain(capsys):
    report = run_json(capsys, ["spectrum", "--name", "complete:3"])
    pairs = report["numeric"]
    assert len(pairs) == 2
    assert abs(pairs[0][0] - 2) < 1e-9 and pairs[0][1] == 1
    assert abs(pairs[1][0] + 1) < 1e-9 and pairs[1][1] == 2


@pytest.mark.parametrize(
    "argv, pairs",
    [(["--g6", "?"], []), (["--name", "complete:1"], [[0.0, 1]])],
    ids=["null-graph", "K1"],
)
def test_spectrum_of_trivial_graphs(capsys, argv, pairs):
    assert run_json(capsys, ["spectrum"] + argv)["numeric"] == pairs


def test_tolerance_flag_is_rejected():
    # the cross-check tolerance is fixed: a negative one used to fail a
    # correct closed form as "spectra differ", and nan switched the check off
    with pytest.raises(SystemExit) as exit_info:
        main(["spectrum", "--name", "paley:9", "--prism-closed-form", "--tolerance", "-1"])
    assert exit_info.value.code == 2


def test_srg_command(capsys):
    report = run_json(capsys, ["srg", "--name", "figure_f9:1"])
    assert report["strongly_regular"] is True
    assert report["parameters"] == [9, 4, 1, 2]
    assert report["one_walk_regular"] is True
    assert report["self_complementary_eigenvalues"] == [4.0, 1.0, -2.0]
    report3 = run_json(capsys, ["srg", "--name", "figure_f9:3"])
    assert report3["strongly_regular"] is False
    assert report3["one_walk_regular"] is False
    assert report3["witness"]["power"] == 3
    assert report3["witness"]["kind"] == "diagonal"
    assert report3["edge_witness"]["power"] == 2


def test_theta_command(capsys):
    report = run_json(capsys, ["theta", "--name", "cycle:5"])
    assert abs(report["upper_bound"] - 5 ** 0.5) < 1e-9
    assert abs(report["complement_lower_bound"] - 5 ** 0.5) < 1e-9


def test_hamilton_modes(capsys):
    report = run_json(capsys, ["hamilton", "--name", "petersen", "--mode", "path"])
    assert report["witness"] is not None and len(report["witness"]) == 10
    report = run_json(capsys, ["hamilton", "--name", "petersen", "--mode", "cycle"])
    assert report["witness"] is None


def test_hamilton_path_between(capsys):
    report = run_json(
        capsys,
        ["hamilton", "--name", "cycle:4", "--mode", "path_between", "--endpoints", "0,1"],
    )
    assert report["witness"][0] == 0 and report["witness"][-1] == 1


def test_hamilton_constructions(capsys):
    report = run_json(capsys, ["hamilton", "--name", "paley:9", "--constructions"])
    assert len(report["prism_p8_path"]) == 18
    assert report["prism_ham_connected_pairs"] == 153


def test_hamilton_reports_mode_only_when_it_reads_it(capsys):
    report = run_json(capsys, ["hamilton", "--name", "paley:5", "--constructions"])
    assert "mode" not in report
    report = run_json(capsys, ["hamilton", "--name", "paley:5", "--mode", "cycle"])
    assert report["mode"] == "cycle"


def test_hamilton_budget_unknown(capsys):
    report = run_json(
        capsys,
        ["hamilton", "--name", "paley:13", "--mode", "cycle", "--budget-nodes", "2"],
    )
    assert report["status"] == "unknown"


def test_hamilton_constructions_share_one_budget(capsys):
    # 40 nodes cover any one of the four searches behind --constructions
    # on Paley(9) (16 at most), but not all four together (54)
    report = run_json(
        capsys,
        ["hamilton", "--name", "paley:9", "--constructions", "--budget-nodes", "40"],
    )
    assert report["status"] == "unknown"


@pytest.mark.parametrize("graph", [["--name", "complete:1"], ["--g6", "?"]], ids=["K1", "null"])
def test_hamilton_connected_reports_pairs_on_tiny_graphs(capsys, graph):
    report = run_json(capsys, ["hamilton", "--mode", "connected", *graph])
    assert report["hamiltonian_connected"] is True
    assert report["pairs"] == 0


def test_invariants_command(capsys):
    report = run_json(capsys, ["invariants", "--name", "petersen"])
    assert (report["alpha"], report["omega"], report["chi"], report["kappa"]) == (4, 2, 3, 3)
    assert report["exact"] is True
    assert len(report["witnesses"]["independent_set"]) == 4


def test_verify_fixture_exa1(capsys):
    report = run_json(capsys, ["verify-fixture", "exa1"])
    assert report["antimorphism"] == {"order": 4, "fixed_points": [0]}
    assert report["retraction_verified"] is True
    assert report["core_size"] == 5 and report["core_is_k5"] is True
    assert report["case"] == "II_in_W1"


def test_verify_fixture_petersen(capsys):
    report = run_json(capsys, ["verify-fixture", "petersen"])
    assert report["aut_order_brute"] == report["aut_order_structured"] == 120
    assert report["ratio"] == 12
    assert report["is_core"] is True
    assert report["prism_of_c5_isomorphic"] is True


def test_verify_fixture_f9(capsys):
    report = run_json(capsys, ["verify-fixture", "f9"])
    for i in range(1, 5):
        sub = report["f9_%d" % i]
        assert sub["self_complementary"] is True
        assert sub["antimorphism_order"] == 4
        assert sub["fixed_points"] == 1
    assert report["f9_1"]["srg"] == [9, 4, 1, 2]
    assert report["f9_3"]["kappa"] == 3
    assert report["f9_2"]["kappa"] == report["f9_4"]["kappa"] == 4


def test_verify_fixture_unknown(capsys):
    code, _, err = run_cli(capsys, ["verify-fixture", "nonsense"])
    assert code == 2 and "error" in err


def test_sweep_small(capsys):
    report = run_json(capsys, ["sweep", "--max-n", "3"])
    assert report["failures"] == 0
    assert report["graphs_checked"] == 11  # 1 + 2 + 8


def test_sweep_counts_every_graph_up_to_four_vertices(capsys):
    report = run_json(capsys, ["sweep", "--max-n", "4"])
    assert report["failures"] == 0
    assert report["graphs_checked"] == 75  # 1 + 2 + 8 + 64


def test_sweep_compares_every_graph_of_a_batch(monkeypatch):
    # the 40th graph on 5 vertices lies in the third slice of ten-vertex prisms
    target = list(cli._all_graphs(5))[39]
    closed_form = cli.cheeger_closed_form

    def wrong_on_target(g, *, prism):
        rep = closed_form(g, prism=prism)
        if g == target:
            return dataclasses.replace(rep, value=rep.value + 1)
        return rep

    monkeypatch.setattr(cli, "cheeger_closed_form", wrong_on_target)
    with pytest.raises(AssertionError, match=re.escape(f"Cheeger mismatch on {target.adj}")):
        main(["sweep", "--max-n", "5"])


def test_bad_name_exits_2(capsys):
    code, _, err = run_cli(capsys, ["construct", "--name", "paley:8"])
    assert code == 2
    assert "error" in err


def test_bad_graph6_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["aut"], stdin_text="!!", monkeypatch=monkeypatch)
    assert code == 2


def assert_input_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("flag", ["--g6", "--name"])
def test_empty_flag_value_is_rejected_not_read_from_stdin(capsys, monkeypatch, flag):
    # a graph waits on stdin; the empty flag must not fall through to it
    monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\n"))
    assert_input_error(capsys, ["aut", flag, ""])


def test_name_and_g6_together_exit_2(capsys):
    err = assert_input_error(capsys, ["aut", "--name", "paley:5", "--g6", "D?{"])
    assert err == "error: give at most one of --name / --g6\n"


def test_cheeger_brute_force_too_large_exits_2(capsys, monkeypatch):
    assert_input_error(capsys, ["cheeger", "--name", "paley:29"])
    assert_input_error(capsys, ["cheeger", "--name", "paley:13", "--prism", "--brute"])
    # an oracle disagreeing is a bug, not an input error: it still escapes
    brute = cli.cheeger_brute_force
    monkeypatch.setattr(cli, "cheeger_brute_force", lambda g: brute(cycle_graph(6)))  # h = 2/3
    with pytest.raises(AssertionError):
        main(["cheeger", "--name", "cycle:5", "--prism"])


@pytest.mark.parametrize("name", ["cycle:2", "kneser:4:2"])
def test_construct_outside_a_constructor_range_exits_2(capsys, name):
    assert_input_error(capsys, ["construct", "--name", name])


def test_graph_too_large_for_graph6_exits_2_before_encoding(capsys):
    # n(n-1)/2 bits would be about 34 GB of stream; the prefix check comes first
    err = assert_input_error(capsys, ["construct", "--name", "empty:262144"])
    assert "out of supported range" in err


def test_closed_output_pipe_exits_0(capsys, monkeypatch):
    def closed(report):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "emit", closed)
    assert main(["construct", "--name", "cycle:5", "--json"]) == 0


def test_theta_of_non_regular_graph_exits_2(capsys):
    assert_input_error(capsys, ["theta", "--name", "path:4"])


def test_spectrum_closed_form_of_non_regular_graph_exits_2(capsys):
    assert_input_error(capsys, ["spectrum", "--prism-closed-form", "--name", "path:4"])


@pytest.mark.parametrize(
    "argv",
    [["prism"], ["classify"], ["core", "--prism"], ["hamilton", "--constructions"]],
    ids=["prism", "classify", "core-prism", "hamilton-constructions"],
)
def test_prism_of_null_graph_exits_2(capsys, argv):
    assert_input_error(capsys, argv + ["--g6", "?"])


def test_hamilton_path_between_bad_endpoints_exit_2(capsys):
    argv = ["hamilton", "--name", "cycle:5", "--mode", "path_between"]
    assert_input_error(capsys, argv)  # no --endpoints at all
    for endpoints in ("0,0", "0,9", "-1,2", "0"):
        assert_input_error(capsys, argv + [f"--endpoints={endpoints}"])


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_antimorph_limit_below_one_exits_2(capsys, limit):
    # "none in the first 0" must not read as "not self-complementary"
    assert_input_error(capsys, ["antimorph", "--name", "cycle:5", f"--limit={limit}"])


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["core", "--name", "cycle:5", "--budget-nodes"],
        ["core", "--prism", "--name", "cycle:5", "--budget-nodes"],
        ["hamilton", "--name", "cycle:5", "--budget-nodes"],
        ["hamilton", "--constructions", "--name", "cycle:5", "--budget-nodes"],
        ["sweep", "--max-n"],
    ],
    ids=["core", "core-prism", "hamilton", "hamilton-constructions", "sweep"],
)
def test_count_below_one_exits_2(capsys, argv, count):
    # a budget of no nodes is not "unknown", and no sizes is not "0 checked"
    assert_input_error(capsys, [*argv, count])


def test_aut_reports_generator_count(capsys):
    report = run_json(capsys, ["aut", "--name", "kneser:7:3"])
    assert report["order"] == 5040
    assert 1 <= report["generators"] <= 34  # at most one per non-trivial base point


def module_env():
    # the child imports the same prismatic package as this test, wherever
    # the suite runs from and whether or not the package is installed
    env = dict(os.environ)
    package_root = str(Path(prismatic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def run_pipeline(launcher, env=None):
    first = subprocess.run(
        [*launcher, "prism", "--name", "paley:5"],
        capture_output=True, text=True, check=True, env=env,
    )
    second = subprocess.run(
        [*launcher, "aut"],
        input=first.stdout, capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(second.stdout)


def test_console_script_pipeline():
    # end-to-end through the module entry point, two processes piped by graph6
    report = run_pipeline([sys.executable, "-m", "prismatic"], env=module_env())
    assert report["order"] == 120 and report["prism_of"]["ratio"] == 12


@pytest.mark.skipif(shutil.which("prismatic") is None,
                    reason="prismatic console script not installed")
def test_installed_console_script_pipeline():
    # end-to-end through the installed entry point
    report = run_pipeline(["prismatic"])
    assert report["order"] == 120 and report["prism_of"]["ratio"] == 12


def test_console_script_maps_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["prismatic"] == "prismatic.cli:main"
    module, attr = scripts["prismatic"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_module_entry_point_passes_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "prismatic", "construct", "--name", "nosuch"],
        capture_output=True, text=True, env=module_env(),
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
