"""The library's surface: no name in ``src/`` that only the tests use, no
module that imports another's private name, and one module that reads
input files."""

import ast
from pathlib import Path

import latent_awaken

ROOT = Path(latent_awaken.__file__).parents[2]


def _definitions(tree):
    """Every function, class and method node, dunder methods aside (Python
    calls those itself)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _uses(tree):
    """(name, line) of each name the code reads: a variable, an attribute,
    or a string that is exactly an identifier (``getattr``, patch targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_library_name_is_used_by_the_library_or_the_benchmark():
    library = {path: ast.parse(path.read_text()) for path in (ROOT / "src" / "latent_awaken").rglob("*.py")}
    # The benchmark, its count pins included, is a caller the tests do not own.
    callers = {**library, **{path: ast.parse(path.read_text()) for path in (ROOT / "perfbench").rglob("*.py")}}
    uses = {path: list(_uses(tree)) for path, tree in callers.items()}
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in library.items()
        for node in _definitions(tree)
        if not any(
            name == node.name and not (other == path and node.lineno <= line <= node.end_lineno)
            for other, names in uses.items()
            for name, line in names
        )
    ]
    assert unused == []


def test_no_library_module_imports_another_modules_private_name():
    imports = [
        f"{path.relative_to(ROOT)}:{node.lineno} {alias.name} from {node.module}"
        for path in (ROOT / "src" / "latent_awaken").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports == []


def _reads_a_file(call):
    """Whether ``call`` is ``x.read_bytes()``, ``x.read_text()``, or
    ``open``/``x.open`` in a mode that reads (the default one included)."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_bytes", "read_text"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        mode_at = 1  # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_at = 0  # path.open(mode)
    else:
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[mode_at : mode_at + 1]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("r+"))


def test_only_numerics_reads_files():
    # numerics.read_input refuses an input file by name; a read elsewhere
    # would bypass that rule.
    reads = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in (ROOT / "src" / "latent_awaken").rglob("*.py")
        if path.name != "numerics.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _reads_a_file(node)
    ]
    assert reads == []
