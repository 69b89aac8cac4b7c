"""The echelon and back-substitution steps stay inside `exactlin`.

`integer_kernel` is the one routine that finishes an elimination into a
kernel, and `integer_rank` the one that stops after it (`rank` clears
rational rows for it).  No other module of the package names `_echelon`
or `kernel_vector`, so every kernel is built the same way.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmfrigid"
INTERNAL = {"_echelon", "kernel_vector"}


def _internal_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.name in INTERNAL)
        elif isinstance(node, ast.Attribute) and node.attr in INTERNAL:
            yield node.attr
        elif isinstance(node, ast.Name) and node.id in INTERNAL:
            yield node.id


def test_no_other_module_names_the_echelon_or_kernel_vector():
    others = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "exactlin.py"]
    assert len(others) >= 2
    used = []
    for path in others:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += [f"{path.name}:{name}" for name in _internal_names(tree)]
    assert used == []


def test_the_check_sees_a_use():
    tree = ast.parse("from .exactlin import _echelon\nexactlin.kernel_vector(e, p, s, j, c)\n")
    assert sorted(_internal_names(tree)) == ["_echelon", "kernel_vector"]
