"""No function in ``src/prismatic`` imports a package module.

An import inside a function hides an edge of the import graph until the
function runs, which is how an import cycle between two modules survives.
So package modules import one another at module level only, where a cycle
fails at once.  numpy is the one library loaded on first use, inside the
functions that need it, so that commands which never touch it start
without it.
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
