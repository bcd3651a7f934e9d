"""The library's surface: no name in ``src/`` that only the tests use."""

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
