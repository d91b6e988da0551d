"""No ``assert`` statement in ``src/prismatic``.

The library re-verifies the witnesses it returns: maps, cliques, colourings,
cuts, Cheeger sets and Hamiltonian paths.  ``python -O`` strips ``assert``
statements, so each check is written ``if not ...: raise AssertionError(...)``
and runs under every interpreter flag.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prismatic"


def test_no_assert_statement_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
