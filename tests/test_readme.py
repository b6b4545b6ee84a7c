"""The README's Example block runs and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def example_block() -> str:
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_example_prints_what_it_documents():
    code = example_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    documented = [c.strip() for c in re.findall(r"#(.*)$", code, re.M)]
    assert len(documented) == 4
    assert out.getvalue().splitlines() == documented
