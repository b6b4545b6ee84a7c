"""The README's Example block runs and prints what its comments say, its
Command line section documents every config key the CLI accepts, its
coverage table is the doctored matrix of ``tests/test_doctored.py``, and
every package attribute it names exists."""

import contextlib
import importlib
import io
import os
import re

from rrspectra import cli

import test_doctored

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def section(title: str) -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read().split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]


def example_block() -> str:
    return re.search(r"```python\n(.*?)```", section("Example"), re.S).group(1)


def test_example_prints_what_it_documents():
    code = example_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    documented = [c.strip() for c in re.findall(r"#(.*)$", code, re.M)]
    assert len(documented) == 4
    assert out.getvalue().splitlines() == documented


def test_config_keys_are_documented():
    # one table row per block, "| `block` | `key`, `key`, ... | ... |"
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section("Command line"), re.M)
    documented = {block: set(re.findall(r"`(\w+)`", keys)) for block, keys in rows}
    assert documented == {block: set(keys) for block, keys in cli.BLOCK_KEYS.items()}


def test_coverage_table_is_the_doctored_matrix():
    # each cell is the exit code, the item named, or "none"; a cell on which
    # the two configs differ reads "gendenshtein / milson"
    def cell(value):
        if not isinstance(value, str):
            return str(value)
        item = re.search(r"item \d+", value)
        return item.group() if item else "none"

    matrices = [matrix for _config, matrix in test_doctored.CONFIGS.values()]
    expected = []
    for name in matrices[0]:
        cells = []
        for column in range(len(test_doctored.COMMANDS)):
            values = [cell(matrix[name][column]) for matrix in matrices]
            cells.append(" / ".join(values) if len(set(values)) > 1 else values[0])
        expected.append(["(none)" if name == "none" else name, *cells])
    table = section("Tests and the acceptance suite").split("| doctor | ", 1)[1]
    assert table.splitlines()[0] == " | ".join(test_doctored.COMMANDS) + " |"
    rows = [line.strip("|").split(" | ") for line in table.splitlines()[2:]
            if line.startswith("| ")]
    assert [[c.strip() for c in row] for row in rows] == expected


def test_named_package_attributes_exist():
    # every backticked `module.name` of a package module, outside code blocks,
    # names something the module has, so a renamed or deleted one fails here;
    # output files such as `verify.json` are not attributes
    with open(README, encoding="utf-8") as fh:
        text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    modules = "routh|spectral|geometry|oracle|verify|cli|errors|_exact"
    pattern = r"(?<![\w/.])(%s)\.(?!(?:json|csv|py)\b)(\w+)" % modules
    named = {m.groups() for span in re.findall(r"`([^`]+)`", text)
             for m in re.finditer(pattern, span)}
    assert ("routh", "real_roots") in named
    missing = sorted("%s.%s" % (module, name) for module, name in named
                     if not hasattr(importlib.import_module("rrspectra." + module), name))
    assert not missing
