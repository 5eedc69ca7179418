"""The README's library example, run as written."""

import contextlib
import io
import re
from pathlib import Path

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
