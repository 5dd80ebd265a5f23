"""The README's library example runs against the package as shipped.

Run as a script, this file executes the example alone, against whichever
conelab the interpreter imports.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_library_example() -> None:
    """Execute the fenced python block under the README's "Library example"."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "<README.md library example>", "exec"), {})


def test_readme_library_example_runs(capsys):
    run_library_example()
    assert capsys.readouterr().out.startswith('{"minimizer"')


if __name__ == "__main__":
    run_library_example()
