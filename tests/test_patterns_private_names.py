"""The zero-pattern encodings stay inside `patterns`.

The side encodings, keys and enumeration helpers of `patterns` are
`_`-prefixed.  No other module of the package imports one or reads one as
an attribute of the module, so a change of encoding touches `patterns`
alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmfrigid"


def _private_names_of_patterns(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "patterns":
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "patterns"
            and node.attr.startswith("_")
        ):
            yield node.attr


def test_no_other_module_uses_a_private_name_of_patterns():
    others = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "patterns.py"]
    assert len(others) >= 2
    used = []
    for path in others:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += [f"{path.name}:{name}" for name in _private_names_of_patterns(tree)]
    assert used == []
