"""The README's examples run against the package as shipped.

The library example is executed as written; each `conelab ...` line of
the "Command line" block runs in a temporary directory, must exit 0 and
print one strict-JSON line on stdout, or, for `sweep`, write its rows.
Run as a script, this file executes the examples alone, the commands
through the `conelab` console script, against whichever conelab the
interpreter imports.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

import conelab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_block(heading: str, language: str) -> str:
    """The first fenced block of the given language under a README heading."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def run_library_example() -> None:
    """Execute the fenced python block under the README's "Library example"."""
    code = _readme_block("Library example", "python")
    exec(compile(code, "<README.md library example>", "exec"), {})


def command_lines() -> list[list[str]]:
    """The arguments of each `conelab ...` line of the "Command line" block."""
    block = _readme_block("Command line", "sh")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("conelab ")]


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def run_command_line_examples(entry_point: list[str], env=None) -> None:
    """Run each README command through entry_point in a fresh directory."""
    for args in command_lines():
        with tempfile.TemporaryDirectory() as cwd:
            result = subprocess.run(
                [*entry_point, *args], cwd=cwd, env=env, capture_output=True, text=True
            )
            assert result.returncode == 0, (args, result.stderr)
            if args[0] == "sweep":
                out = args[args.index("--out") + 1]
                with open(os.path.join(cwd, out), encoding="utf-8") as handle:
                    header, *rows = handle.read().splitlines()
                assert header == conelab.CSV_HEADER and rows, args
                assert result.stdout == "", args
            else:
                lines = result.stdout.splitlines()
                assert len(lines) == 1, (args, result.stdout)
                assert isinstance(json.loads(lines[0], parse_constant=_strict), dict), args


def test_readme_library_example_runs(capsys):
    run_library_example()
    assert capsys.readouterr().out.startswith('{"minimizer"')


def test_readme_command_line_examples_run():
    assert len(command_lines()) == 7
    # the child imports the conelab this process imports
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(conelab.__file__)))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    run_command_line_examples([sys.executable, "-m", "conelab"], env)


if __name__ == "__main__":
    run_library_example()
    run_command_line_examples(["conelab"])
