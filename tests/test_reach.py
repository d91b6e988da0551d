"""Everything public in ``src/prismatic`` is reached, and every CLI flag is read.

A public module-level function or class, or a public method of a public
class, counts as reached when something other than its own definition names
it: code anywhere in ``src/prismatic`` (the package root defines nothing but
its docstring, so every name is imported from its module), a bench script,
or README.md, whose Library section names the API that only the tests
call.  In ``src/prismatic`` a method is reached only through an
attribute access ``.name``, so a local variable that shares its name does
not count.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

from prismatic.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prismatic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))

# The commands that read each optional flag; every other command rejects it.
FLAG_READERS = {"--json": {"construct", "prism"}, "--budget-nodes": {"core", "hamilton"}}


def public_definitions() -> list[tuple[str, str, bool]]:
    """(qualified name, name, is a method) of every public module-level
    ``def`` and ``class``, and of every public method of a public class."""
    found = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def names_used_in_src() -> tuple[set[str], set[str]]:
    """The names that code in ``src/prismatic`` reads, imports or looks up
    as an attribute, and the attribute names alone."""
    used, attributes = set(), set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used | attributes, attributes


def test_every_public_name_in_src_is_reached():
    used, attributes = names_used_in_src()
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    text += (ROOT / "README.md").read_text(encoding="utf-8")
    unreached = [
        qualified
        for qualified, name, is_method in public_definitions()
        if name not in (attributes if is_method else used) and not re.search(rf"\b{name}\b", text)
    ]
    assert unreached == []


def test_each_flag_is_accepted_only_by_the_commands_that_read_it():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for flag, readers in FLAG_READERS.items():
        takers = {
            command
            for command, parser in sub.choices.items()
            if any(flag in action.option_strings for action in parser._actions)
        }
        assert takers == readers, flag


@pytest.mark.parametrize("flag", [["--budget-nodes", "1"], ["--json"]], ids=["budget", "json"])
def test_aut_rejects_flags_it_would_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["aut", "--name", "paley:5", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
