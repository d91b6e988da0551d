"""Start-up loads only what is used.

numpy is imported on first use, so commands that never compute with it
start without loading it.  One fresh interpreter imports the CLI, runs
every numpy-free command in turn and checks after each that numpy is still
absent; then it runs a spectrum and checks that numpy has been loaded.  A
module-level ``import numpy`` anywhere on the CLI's import path fails the
first check.

The package root imports nothing, so importing one module loads only the
package modules it imports itself: ``prismatic.graphs`` loads no other, and
``prismatic.structural`` loads neither ``spectral`` nor ``prisms``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_FREE = [
    ["construct", "--name", "paley:9"],
    ["prism", "--name", "paley:9"],
    ["aut", "--name", "paley:9"],
    ["antimorph", "--name", "paley:9"],
    ["core", "--name", "paley:9"],
    ["core", "--prism", "--name", "paley:9"],
    ["classify", "--name", "paley:9"],
    # a base above 8 vertices: smaller ones also get the brute-force cross-check
    ["cheeger", "--prism", "--name", "paley:9"],
    ["hamilton", "--name", "paley:9"],
    ["hamilton", "--constructions", "--name", "paley:9"],
    ["invariants", "--name", "paley:9"],
    ["verify-fixture", "exa1"],
    ["verify-fixture", "petersen"],
    ["verify-fixture", "mysterious505"],
]

CHILD = """
import contextlib, io, json, sys

import prismatic.cli as cli

assert "numpy" not in sys.modules, "importing prismatic.cli loaded numpy"


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"{argv} exited {code}"


for argv in json.loads(sys.argv[1]):
    run(argv)
    assert "numpy" not in sys.modules, f"{argv} loaded numpy"
run(["spectrum", "--name", "paley:9"])
assert "numpy" in sys.modules, "spectrum ran without numpy"
"""


GRAPHS_ALONE = """
import sys

import prismatic.graphs

loaded = sorted(k for k in sys.modules if k.split(".")[0] == "prismatic")
assert loaded == ["prismatic", "prismatic.graphs"], loaded
"""


STRUCTURAL_ALONE = """
import sys

import prismatic.structural

loaded = sorted(k for k in sys.modules if k.split(".")[0] == "prismatic")
expected = ["families", "fields", "graphio", "graphs", "morphisms", "structural"]
assert loaded == ["prismatic"] + ["prismatic." + m for m in expected], loaded
"""


def run_child(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", *args],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_numpy_loads_only_for_the_commands_that_use_it():
    run_child(CHILD, json.dumps(NUMPY_FREE))


def test_graphs_module_loads_no_other_package_module():
    run_child(GRAPHS_ALONE)


def test_structural_module_loads_neither_spectral_nor_prisms():
    run_child(STRUCTURAL_ALONE)
