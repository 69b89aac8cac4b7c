"""No definition or import in the package goes unused.

A module-level function, class or assignment, or a non-dunder method, of
`src/nmfrigid` must be named somewhere other than its own definition: in
the package, the tests or the benchmark.  A name counts as used when it is
loaded, read as an attribute, imported, or written as a string (the
benchmark's tracer looks functions up by their names).  An import in a
module other than `__init__.py` must be named by that module itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nmfrigid"
SCANNED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_package_definition_is_named_elsewhere():
    used = set()
    for directory in SCANNED:
        for path in directory.rglob("*.py"):
            used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name != "__all__" and name not in used:
                unused.append(f"{path.name}:{name}")
    assert unused == []


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".", 1)[0]] = node.lineno
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in named]


def test_every_package_import_is_named_by_its_module():
    # Re-exports are what `__init__.py` is for; every other module must use
    # what it imports, including the names the benchmark's tracer patches.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            unused += [f"{path.name}:{entry}" for entry in _unused_imports(tree)]
    assert unused == []
