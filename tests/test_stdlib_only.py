"""The package runs on the standard library alone.

Every import in `src/nmfrigid` is relative or names a standard library
module, the project declares no runtime dependency, and every module
parses under the oldest Python that pyproject.toml admits.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _absolute_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_package_imports_only_the_standard_library():
    foreign = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "nmfrigid").glob("*.py"))
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".", 1)[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_project_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_package_parses_at_the_declared_python_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert floor
    version = tuple(map(int, floor.groups()))
    for path in sorted((ROOT / "src" / "nmfrigid").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
