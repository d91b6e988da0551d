"""No function in ``src/prismatic`` imports a package module.

An import inside a function hides an edge of the import graph until the
function runs, which is how an import cycle between two modules survives.
So package modules import one another at module level only, where a cycle
fails at once.  numpy is the one library loaded on first use, inside the
functions that need it, so that commands which never touch it start
without it.

Every module-level import is read in its own module: an import left behind
by a deletion would keep an edge of the import graph that nothing uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prismatic"


def local_package_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every import of a package module inside a function,
    sorted; a nested function's imports are seen from each enclosing one."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level or module.split(".")[0] == "prismatic":
                    found.add((node.lineno, "." * node.level + module))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "prismatic":
                        found.add((node.lineno, alias.name))
    return sorted(found)


def unread_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name a module-level import binds that the
    module never reads; ``from __future__`` imports bind no name."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append((node.lineno, name))
    return found


def test_no_function_local_import_of_a_package_module():
    found = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(SRC.glob("*.py"))
        for line, module in local_package_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_walk_sees_a_local_import_and_lets_numpy_through():
    tree = ast.parse(
        "import numpy\n"
        "from .graphs import Graph\n"
        "def f():\n"
        "    import numpy as np\n"
        "    def g():\n"
        "        from .structural import max_clique\n"
        "    import prismatic.cli\n"
    )
    assert local_package_imports(tree) == [(6, ".structural"), (7, "prismatic.cli")]


def test_every_module_level_import_is_read():
    found = [
        f"{path.name}:{line} imports {name} and never reads it"
        for path in sorted(SRC.glob("*.py"))
        for line, name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_an_import_read_only_in_a_function_or_annotation_counts_as_read():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .graphs import Graph, bits\n"
        "from .spectral import srg_analysis as srg\n"
        "def f(g: Graph):\n"
        "    return math.pi\n"
        "bits = 0\n"
    )
    assert unread_imports(tree) == [(3, "os"), (4, "bits"), (5, "srg")]
