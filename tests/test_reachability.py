"""src/ keeps only what a command runs.

An AST scan over `src/liegauge` reports two kinds of dead code:

  * a top-level function or class method that nothing references.  A
    function is referenced by a name, an attribute or an identifier string,
    a method by an attribute or an identifier string, anywhere in `src/`
    or `bench/` outside the definition's own body, import lines and
    `__all__`.  An attribute read through the bare name of a class that
    `src/` defines, `X.name`, references only `X.name`.  A definition
    referenced only from inside dead ones is dead too, so the scan runs to
    a fixed point.  Dunder methods are called by the language and are never
    reported.
  * a module-level import that its own module never reads.  `__init__.py`
    files re-export what they import and are skipped.

Tests do not count as references: a helper that only tests call belongs
in the tests.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "liegauge"
BENCH = ROOT / "bench"

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _definitions(tree):
    """Top-level functions and the methods of top-level classes, as
    (qualified name, node, is_method) triples; dunders excluded."""
    for node in tree.body:
        if isinstance(node, FUNCTION):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, FUNCTION)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item, True


def _references(tree, classes):
    """Each (name, is_bare_name, class, enclosing function nodes) the tree
    reads, where class is X for an attribute `X.name` read through the bare
    name X of one of `classes`, else None; import lines and `__all__` are
    skipped."""
    out = []

    def walk(node, enclosing):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            return
        if isinstance(node, FUNCTION):
            enclosing = enclosing + (node,)
        if isinstance(node, ast.Name):
            out.append((node.id, True, None, enclosing))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if (isinstance(node.value, ast.Name)
                                      and node.value.id in classes) else None
            out.append((node.attr, False, owner, enclosing))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.append((node.value, False, None, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, ())
    return out


def _unread_imports(tree):
    """(name, line) of each module-level import the module never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    yield bound, node.lineno


def scan(src_root: Path, other_roots=()):
    """Dead code under `src_root`, whose `*.py` files the scan visits.

    Returns the sorted findings, one "path: kind name" line each, the set
    of "module.qualname" definitions found live, and the visited files.
    Files under `other_roots` contribute references only.
    """
    visited = sorted(Path(src_root).rglob("*.py"))
    others = [p for r in other_roots for p in sorted(Path(r).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in visited + others}
    defs = [(p, q, node, method) for p in visited
            for q, node, method in _definitions(trees[p])]
    classes = {node.name for p in visited for node in trees[p].body
               if isinstance(node, ast.ClassDef)}
    refs = [r for tree in trees.values() for r in _references(tree, classes)]
    dead: set = set()
    changed = True
    while changed:
        changed = False
        for p, q, node, method in defs:
            owner = q.split(".")[0] if method else None
            if node not in dead and not any(
                    name == node.name and not (method and bare)
                    and cls in (None, owner)
                    and node not in enc and dead.isdisjoint(enc)
                    for name, bare, cls, enc in refs):
                dead.add(node)
                changed = True
    findings = [f"{p}: unreferenced {q}" for p, q, node, _ in defs
                if node in dead]
    for p in visited:
        if p.name != "__init__.py":
            findings += [f"{p}: unread import {name} (line {line})"
                         for name, line in _unread_imports(trees[p])]
    live = {f"{p.stem}.{q}" for p, q, node, _ in defs if node not in dead}
    return sorted(findings), live, visited


def test_src_has_no_dead_code():
    start = time.perf_counter()
    findings, live, visited = scan(SRC, [BENCH])
    assert time.perf_counter() - start < 2.0
    # the scan saw every module and the entry point, so it cannot pass
    # by scanning nothing
    assert set(visited) == set(SRC.glob("**/*.py"))
    assert "cli.main" in live
    assert findings == []


def test_scan_reports_a_planted_dead_function_and_import(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "import json\n"
        "import math\n"
        "\n"
        "__all__ = ['used', 'unused']\n"
        "\n"
        "\n"
        "def used():\n"
        "    return math.pi\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return unused()\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = used()\n",
        encoding="utf-8")
    findings, live, visited = scan(tmp_path)
    assert visited == [module]
    assert findings == [f"{module}: unread import json (line 1)",
                        f"{module}: unreferenced unused"]
    assert live == {"planted.used"}


def test_scan_reads_a_class_qualified_reference_as_that_class_only(
        tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "class Left:\n"
        "    @staticmethod\n"
        "    def build():\n"
        "        return 1\n"
        "\n"
        "\n"
        "class Right:\n"
        "    @staticmethod\n"
        "    def build():\n"
        "        return 2\n"
        "\n"
        "\n"
        "def main():\n"
        "    return Left.build()\n"
        "\n"
        "\n"
        "main()\n",
        encoding="utf-8")
    findings, live, visited = scan(tmp_path)
    assert visited == [module]
    # read as a bare method name, Left.build would keep Right.build alive
    assert findings == [f"{module}: unreferenced Right.build"]
    assert live == {"planted.main", "planted.Left.build"}
