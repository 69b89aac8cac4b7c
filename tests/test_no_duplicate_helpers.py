"""No two test modules define the same helper.

A module-level function or class whose syntax tree (name included) is
identical in two files under tests/ is kept in one of them and imported by
the other, as `from test_rigidity import pair_from` does, so that a fix to
the helper cannot reach only one copy.
"""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_no_module_level_definition_is_repeated_across_test_files():
    homes = defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                homes[ast.dump(node)].append(f"{path.name}:{node.name}")
    assert [files for files in homes.values() if len(files) > 1] == []
