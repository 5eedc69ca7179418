"""Package layout rules, checked on the source tree with ast."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "liaisonlab"


def test_no_private_name_imported_from_a_sibling_module():
    """`from .<sibling> import _name` couples a module to another's
    internals; `from . import _kernels as K` imports a module and is fine,
    but reading a private name through it (`K._pack`) is the same coupling."""
    offenders = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [
                    f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif isinstance(node, ast.ImportFrom) and node.level:
                modules.update(alias.asname or alias.name for alias in node.names)
        offenders += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ]
    assert offenders == []


def test_only_the_term_modules_read_element_terms():
    """An Element holds its terms as packed ints (`packed`) with their
    coefficients (`coeffs`), in its module's encoding (`packing`).  Only
    ring, _kernels and groebner know that encoding; every other module
    reads terms through `lt()` and `terms()`."""
    storage = {"packed", "coeffs", "packing"}
    offenders = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(PKG.glob("*.py"))
        if path.name not in ("ring.py", "_kernels.py", "groebner.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in storage
    ]
    assert offenders == []


def test_every_public_function_has_a_caller():
    """A public module-level function, or a public method of a module-level
    class, must be named somewhere in src, tests or perfbench outside its
    own body; one that nothing calls is dead code.  The scan goes by name,
    so a method counts as called when any attribute of that name is read:
    a method that shares its name with a called method of another class
    (`rows`, `transpose`, `to_json`) passes uncalled, and so does a function
    that a test only imports."""
    root = PKG.parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    uses = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    unused = []
    for path in sorted(PKG.glob("*.py")):
        for node in trees[path].body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members = node.body
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    own = range(fn.lineno, fn.end_lineno + 1)
                    if not any(p != path or line not in own for p, line in uses.get(fn.name, [])):
                        unused.append(f"{path.name}:{fn.lineno}: {fn.name}")
    assert unused == []


def test_no_unused_imports():
    """Every name a module of the package or of the tests imports is read
    somewhere in that module.  `__init__.py` is exempt: its imports are
    re-exports."""
    unused = []
    for path in sorted(PKG.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in read
        ]
    assert unused == []


def test_no_assertion_left_in_the_package():
    """Every failure of the package is an `errors.py` type, which the CLI
    maps to an exit code and a report: no `assert` statement (stripped
    under -O) and no `raise AssertionError` is left in src/liaisonlab."""
    offenders = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_sibling_imports_sit_at_module_level():
    """A sibling module is imported at the top of a module, where the
    import graph can be read."""
    inner = []
    for path in sorted(PKG.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner += [
                    (path.name, fn.name, node.module, alias.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names
                ]
    assert inner == []
