"""Every public top-level function and class of the package, and every public
method and property of its classes, serves a command.

The walk starts at ``cli.run``, the process entry point, which calls
``cli.main``.  Each name a reachable definition mentions,
as a plain name or as an attribute, makes every definition of that name in
any module reachable: top-level definitions (module-level assignments
included, so a constant passes on what its value mentions) and methods of
classes alike.  A class passes on its bases, decorators, class-level
statements and dunder methods, which count as reached with it; each other
method is a definition of its own.  Matching by name can only
over-approximate what a command reaches, so a public definition the walk
misses is code no command runs.

Parameters are walked too: every keyword-only parameter of a function in
the package must be passed by keyword from some call in the package.  A
keyword-only parameter that only callers outside it set is a mode no
command runs.  Matching by keyword name again over-approximates.
"""

import ast
import os

import rrspectra

PACKAGE = os.path.dirname(os.path.abspath(rrspectra.__file__))


def package_trees() -> dict:
    """{module: parsed source} for every module of the package."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = ast.parse(fh.read(), fname)
    return out


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_method(node) -> bool:
    """A method that is a definition of its own (dunders go with the class)."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_dunder(node.name)


def definitions(trees: dict) -> dict:
    """{(module, name): node} for every top-level def, class and assigned
    name, and {(module, "Class.method"): node} for every non-dunder method."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        out[module, target.id] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if is_method(sub):
                        out[module, "%s.%s" % (node.name, sub.name)] = sub
    return out


def mentioned(node) -> set:
    """Names ``node`` mentions; a class's own methods are left to themselves."""
    if isinstance(node, ast.ClassDef):
        roots = node.bases + node.keywords + node.decorator_list
        roots += [sub for sub in node.body if not is_method(sub)]
    else:
        roots = [node]
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for root in roots for sub in ast.walk(root)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unreachable_public(defs: dict) -> list:
    by_name = {}
    for module, name in defs:
        by_name.setdefault(name.rpartition(".")[2], []).append((module, name))
    reached = {("cli", "run")}
    stack = [("cli", "run")]
    while stack:
        for name in mentioned(defs[stack.pop()]):
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    stack.append(key)
    return sorted("%s.%s" % key for key, node in defs.items()
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not key[1].rpartition(".")[2].startswith("_") and key not in reached)


def unpassed_keywords(trees: dict) -> list:
    """"module.function(parameter)" for each keyword-only parameter that no
    call in ``trees`` passes by keyword."""
    passed = {kw.arg for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call) for kw in node.keywords}
    return sorted("%s.%s(%s)" % (module, node.name, arg.arg)
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for arg in node.args.kwonlyargs if arg.arg not in passed)


def plant_method(trees: dict, module: str, cls: str, source: str) -> None:
    """Append the methods in ``source`` to class ``cls`` of ``module``."""
    node = next(n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls)
    node.body.extend(ast.parse(source).body)


def test_every_public_definition_is_reached_from_cli_main():
    assert unreachable_public(definitions(package_trees())) == []


def test_the_walk_finds_a_planted_orphan():
    defs = definitions(package_trees())
    orphan = ast.parse("def orphan():\n    return main()\n").body[0]
    defs["cli", "orphan"] = orphan
    assert unreachable_public(defs) == ["cli.orphan"]


def test_the_walk_finds_a_planted_orphan_method():
    trees = package_trees()
    plant_method(trees, "spectral", "Spectrum",
                 "@property\ndef orphan_count(self):\n    return len(self.states)\n"
                 "def orphan_helper(self):\n    return self.orphan_count\n")
    assert unreachable_public(definitions(trees)) == [
        "spectral.Spectrum.orphan_count", "spectral.Spectrum.orphan_helper"]


def test_dunder_methods_are_reached_with_their_class():
    trees = package_trees()
    plant_method(trees, "spectral", "Spectrum",
                 "def __len__(self):\n    return self.level_count()\n"
                 "def level_count(self):\n    return len(self.states)\n")
    assert unreachable_public(definitions(trees)) == []


def test_every_keyword_only_parameter_is_passed_in_the_package():
    assert unpassed_keywords(package_trees()) == []


def test_the_walk_finds_a_planted_orphan_parameter():
    trees = package_trees()
    trees["cli"].body.extend(ast.parse(
        "def orphan(x, *, orphan_mode=False):\n    return x\norphan(1)\n").body)
    assert unpassed_keywords(trees) == ["cli.orphan(orphan_mode)"]
    trees["cli"].body.extend(ast.parse("orphan(1, orphan_mode=True)\n").body)
    assert unpassed_keywords(trees) == []
