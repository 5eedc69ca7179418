"""Package layout rules, checked on the source tree with ast."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "liaisonlab"


def test_no_private_name_imported_from_a_sibling_module():
    """`from .<sibling> import _name` couples a module to another's
    internals; `from . import _kernels as K` imports a module and is fine."""
    offenders = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [
                    f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
