"""The package's public names and `__all__` list the same things."""

import ast
from pathlib import Path

import nmfrigid

INIT = Path(nmfrigid.__file__)


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in nmfrigid.__all__ if not hasattr(nmfrigid, name)]
    assert missing == []


def test_every_public_import_of_the_package_is_exported():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert imported and sorted(set(imported) - set(nmfrigid.__all__)) == []
