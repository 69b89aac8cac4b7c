"""Fractions are cleared to integers only inside `exactlin`.

`integer_multiple` is the one routine that clears, and it hands back the
lcm it takes with the integers, so no other module of the package reads a
numerator or a denominator, or takes an lcm of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmfrigid"
INTERNAL = {"numerator", "denominator", "lcm"}


def _clearing_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.name == "lcm")
        elif isinstance(node, ast.Attribute) and node.attr in INTERNAL:
            yield node.attr


def test_no_other_module_reads_a_denominator_or_imports_lcm():
    others = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "exactlin.py"]
    assert {"cone.py", "rigidity.py"} <= {path.name for path in others}
    used = []
    for path in others:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += [f"{path.name}:{name}" for name in _clearing_names(tree)]
    assert used == []


def test_the_check_sees_a_use():
    tree = ast.parse(
        "from math import gcd, lcm\n"
        "d = math.lcm(*(x.denominator for x in v))\n"
        "w = [x.numerator * (d // x.denominator) for x in v]\n"
    )
    assert sorted(_clearing_names(tree)) == ["denominator", "denominator", "lcm", "lcm", "numerator"]
