"""No error message of the package quotes a value by its full repr.

An f-string inside a `raise` under `src/nmfrigid` that converts with `!r`
echoes its value whole, however long the input made it; such values go
through `exactlin._shown`, which keeps the first 40 characters.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmfrigid"


def test_no_raise_quotes_a_value_with_repr_conversion():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                sites.update(
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.FormattedValue) and inner.conversion == ord("r")
                )
    assert sorted(sites) == []
