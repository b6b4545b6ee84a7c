"""Every public top-level function and class of the package serves a command.

The walk starts at ``cli.main``.  Each name a reachable definition mentions,
as a plain name or as an attribute, makes every top-level definition of that
name in any module reachable (module-level assignments included, so a
constant passes on what its value mentions).  Matching by name can only
over-approximate what a command reaches, so a public definition the walk
misses is code no command runs.
"""

import ast
import os

import rrspectra

PACKAGE = os.path.dirname(os.path.abspath(rrspectra.__file__))


def top_level_definitions() -> dict:
    """{(module, name): node} for every top-level def, class and assigned name."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        module = fname[:-3]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        out[module, target.id] = node
    return out


def mentioned(node) -> set:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def unreachable_public(definitions: dict) -> list:
    by_name = {}
    for (module, name), node in definitions.items():
        by_name.setdefault(name, []).append((module, name))
    reached = {("cli", "main")}
    stack = [("cli", "main")]
    while stack:
        for name in mentioned(definitions[stack.pop()]):
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    stack.append(key)
    return sorted("%s.%s" % key for key, node in definitions.items()
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not key[1].startswith("_") and key not in reached)


def test_every_public_definition_is_reached_from_cli_main():
    assert unreachable_public(top_level_definitions()) == []


def test_the_walk_finds_a_planted_orphan():
    definitions = top_level_definitions()
    orphan = ast.parse("def orphan():\n    return main()\n").body[0]
    definitions["cli", "orphan"] = orphan
    assert unreachable_public(definitions) == ["cli.orphan"]
