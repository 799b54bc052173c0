"""The examples of the README, run as they are shown.

Each ``$ grafold ...`` line of a ``text`` block in README.md is run through
``cli.main``, and what it prints must be the lines that follow it in the
block. A ``> FILE`` redirect sends standard output to a file in a temporary
directory, so only standard error is printed; the file must hold a valid
folding-space export. The ``python`` block under "Library example" is run
too, and each ``print`` must print its trailing ``# ...`` comment.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from grafold.cli import main
from grafold.space import validate_lts_json

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command line after ``$ ``, the lines printed under it) per example."""
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(), re.S | re.M):
        for line in block.splitlines():
            if line.startswith("$ grafold "):
                examples.append((line[2:], []))
            elif examples:
                examples[-1][1].append(line)
    return [(command, "".join(f"{line}\n" for line in lines)) for command, lines in examples]


EXAMPLES = _examples()


def test_readme_has_its_four_examples():
    assert [command.split()[1] for command, _ in EXAMPLES] == ["fold", "fold", "enumerate", "eval"]


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(command, printed, tmp_path):
    argv = shlex.split(command)[1:]
    redirect = None
    if ">" in argv:
        at = argv.index(">")
        argv, redirect = argv[:at] + argv[at + 2 :], tmp_path / argv[at + 1]
    stdout = io.StringIO()
    stderr = io.StringIO() if redirect is not None else stdout
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(argv) == 0
    assert stderr.getvalue() == printed
    if redirect is not None:
        redirect.write_text(stdout.getvalue())
        validate_lts_json(json.loads(redirect.read_text()))


def test_readme_library_example_prints_its_comments():
    (block,) = re.findall(
        r"^## Library example\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M
    )
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(comments) == block.count("print(") == 2
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, "README.md", "exec"), {})
    assert stdout.getvalue() == "".join(f"{line}\n" for line in comments)
