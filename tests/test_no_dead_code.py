"""No definition or import in the package goes unused.

The package ships only what its users reach.  A module-level function,
class or assignment of `src/nmfrigid`, and a non-dunder method of a class
that `nmfrigid.__all__` does not export, must be named by package code
other than its own definition, listed in `__all__`, or named in the README.
Tests do not count: a name only the tests use belongs in tests/.  The
benchmark's tracer looks functions up by name, so the identifier strings
of perfbench count too.  A name counts as named when it is loaded, read as
an attribute, imported, or written as a string.  An import in a module
other than `__init__.py` must be named by that module itself.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nmfrigid"


def _definitions(tree: ast.Module, exported: set[str]):
    """(shown name, name, node) of each definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.AST):
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


def _exported(init: ast.Module) -> set[str]:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions(package: Path, readme: str, extra: tuple[Path, ...]) -> list[str]:
    """The definitions of `package` that nothing outside the tests reaches.

    `extra` are trees, such as the benchmark, whose identifier strings count
    as lookups by name; nothing else in them counts.
    """
    paths = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    named = Counter()
    for tree in trees.values():
        named.update(_references(tree))
    init = package / "__init__.py"
    exported = _exported(trees[init]) if init in trees else set()
    reached = exported | set(re.findall(r"[A-Za-z_]\w*", readme))
    for directory in extra:
        for path in directory.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    reached.add(node.value)
    unused = []
    for path, tree in trees.items():
        for shown, name, node in _definitions(tree, exported):
            own = Counter(_references(node))[name]
            if name != "__all__" and name not in reached and named[name] <= own:
                unused.append(f"{path.name}:{shown}")
    return unused


def test_every_package_definition_is_named_elsewhere():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_definitions(PACKAGE, readme, (ROOT / "perfbench",)) == []


def test_the_rule_reports_what_only_tests_name(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('from .core import Exported\n\n__all__ = ["Exported"]\n')
    (package / "core.py").write_text(
        "class Hidden:\n"
        "    def tested_method(self):\n"
        "        return 0\n\n\n"
        "class Exported(Hidden):\n"
        "    def method(self):\n"
        "        return helper()\n\n\n"
        "def helper():\n"
        "    return 1\n\n\n"
        "def documented():\n"
        "    return 2\n\n\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n\n\n"
        "def traced():\n"
        "    return 3\n\n\n"
        "def only_tested():\n"
        "    return 4\n\n\n"
        "def called_by_benchmark():\n"
        "    return 5\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text(
        "from pkg.core import Hidden, only_tested, recursive\n\n\n"
        "def test_core():\n"
        "    assert Hidden().tested_method() + only_tested() + recursive(2) == 4\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "trace.py").write_text(
        "from pkg import core\n\n"
        "SPANS = [(core, 'traced')]\n"
        "core.called_by_benchmark()\n"
    )
    readme = "Call `pkg.core.documented()` for the documented value.\n"
    assert unused_definitions(package, readme, (tmp_path / "bench",)) == [
        "core.py:Hidden.tested_method",
        "core.py:recursive",
        "core.py:only_tested",
        "core.py:called_by_benchmark",
    ]


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
