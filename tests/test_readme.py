"""The README's library example, run as written, and its CLI examples,
parsed as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from liaisonlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_what_its_comments_say():
    """Each `print(...)  # out` line of the python block prints `out`, and
    every check of the example link's report applies and holds."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected, "the example prints nothing to check"
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == expected
    assert namespace["rec"].J.canonical_strings() == ["x0", "x1"]
    assert all(v is True for v in namespace["rec"].verification.values())


def test_readme_cli_examples_parse_and_name_every_command():
    """Every `liaison-lab ...` line of the README's sh blocks parses, and
    together they show every command of the table."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("liaison-lab ")]
    parse = cli._build_parser().parse_args
    assert {parse(shlex.split(line)[1:]).command for line in lines} == set(cli.COMMANDS)
