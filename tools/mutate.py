"""Mutation check: swap one operator of a module at a time, run the named
tests against each mutant, and print each mutant that they let through.

    python3 tools/mutate.py src/nmfrigid/cone.py tests/test_cone.py tests/test_rigidity.py

A mutant swaps one comparison (< and <=, > and >=, == and !=) or one
arithmetic operator (+ and -, // to *).  Its package is copied into a
temporary directory that goes first on PYTHONPATH, so the source tree is
never written.  A mutant survives when the tests pass; one that runs past
the timeout counts as killed, since a test that hangs does not pass.
Mutants run one at a time, each in one pytest process.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.FloorDiv: ast.Mult,
}
SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Add: "+",
    ast.Sub: "-",
    ast.FloorDiv: "//",
    ast.Mult: "*",
}


def sites(tree: ast.Module) -> list[tuple[ast.AST, int | None]]:
    """Every swappable operator as (node, index into a comparison's ops or
    None), in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))
    return found


def mutant(source: str, which: int) -> tuple[str, int, str]:
    """The source with site `which` swapped, its line and the mutated
    expression."""
    tree = ast.parse(source)
    node, k = sites(tree)[which]
    if k is None:
        old = node.op
        new = node.op = SWAPS[type(old)]()
    else:
        old = node.ops[k]
        new = node.ops[k] = SWAPS[type(old)]()
    swap = f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"
    return ast.unparse(tree), node.lineno, f"{swap}: {ast.unparse(node)}"


def run_tests(root: Path, path: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """Whether the tests pass with `path`'s package on PYTHONPATH first,
    and the time they took."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(path), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="a module inside a package, e.g. src/nmfrigid/cone.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids handed to pytest")
    args = parser.parse_args(argv)
    module = args.module.resolve()
    package = module.parent
    root = Path.cwd()
    source = module.read_text(encoding="utf-8")
    count = len(sites(ast.parse(source)))

    survivors = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        passed, seconds = run_tests(root, Path(scratch), args.tests, None)
        if not passed:
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        timeout = 3 * seconds + 10
        for which in range(count):
            text, line, swap = mutant(source, which)
            (copy / module.name).write_text(text, encoding="utf-8")
            passed, _ = run_tests(root, Path(scratch), args.tests, timeout)
            if passed:
                survivors += 1
                print(f"{module.name}:{line}: {swap}", flush=True)
    print(f"{count} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
