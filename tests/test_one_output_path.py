"""``cli.main`` is the one place that writes a command's output.

Every ``cmd_*`` function returns its report, and ``main`` prints it: a dict
through ``emit``, the bare graph6 text of ``construct``/``prism`` through
``print``.  Anything added to every report then has one place to go.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "prismatic" / "cli.py"


def calls_by_function(name: str) -> list[str]:
    """The top-level function holding each call of ``name`` in cli.py."""
    found = []
    for fn in ast.parse(CLI.read_text(encoding="utf-8")).body:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == name
            ):
                found.append(getattr(fn, "name", "<module>"))
    return found


def test_emit_is_called_once_and_from_main():
    assert calls_by_function("emit") == ["main"]


def test_no_command_prints():
    assert [f for f in calls_by_function("print") if f.startswith("cmd_")] == []
