"""No unused imports, and no library function or class that nothing calls.

A static check by name with the standard library's ast module.  A name
counts as used where it appears as a name, an attribute, an imported name,
or a string constant that is exactly that name (a quoted annotation, or the
benchmark tracer's lookup of a function by module and attribute name).  Being
by name, it misses a dead definition whose name some other code uses.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "outerspace"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# Library definitions that only tests and documents use, each with its reason.
UNCALLED_ALLOWED = {
    ("lipschitz_metric", "distance"): "the README library example calls it",
    ("graph_map", "is_legal"): "acceptance criterion 8 finds legal loops with it",
    ("lipschitz_metric", "displacement"): "the library's stretch report of x against x.phi",
    ("graph_map", "tension_subgraph"): "kept for the optimal-map step of stalled fold loops",
    ("graph_map", "gates_one_step"): "kept for the optimal-map step of stalled fold loops",
    ("graph_map", "find_legal_loop"): "kept for certifying hyperbolic by a legal loop",
}

# Imports a module keeps only for its importers, each with its reason.
REEXPORT_ALLOWED = {
    ("graph_core", "cyclic_reduce"): "tests/test_acceptance.py imports it from graph_core",
}


def _sources(dirs: Iterable[Path]) -> List[Path]:
    return sorted(p for d in dirs for p in d.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(nodes: Iterable[ast.AST], attributes: bool) -> Set[str]:
    out: Set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    out.add(sub.value)
            elif attributes and isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif attributes and isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def _imports(tree: ast.Module) -> List[Tuple[str, int]]:
    """(bound name, line) of each import, __future__ imports aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                out.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    return out


def test_no_unused_imports():
    unused = []
    for path in _sources([LIBRARY, ROOT / "scripts"]):
        tree = _parse(path)
        used = _names([tree], attributes=False)
        for name, line in _imports(tree):
            if name not in used and (path.stem, name) not in REEXPORT_ALLOWED:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "imports never used:\n" + "\n".join(unused)


def test_every_library_definition_is_used():
    # How many top-level statements of the callers use each name.
    users: Counter = Counter()
    library_defs = []
    for path in _sources(CALLERS):
        for stmt in _parse(path).body:
            names = _names([stmt], attributes=True)
            users.update(names)
            if path.parent == LIBRARY and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                library_defs.append((path.stem, stmt.name, stmt.name in names))
    uncalled = {(module, name) for module, name, recursive in library_defs
                if users[name] - recursive == 0}
    unexpected = sorted(f"{m}.{n}" for m, n in uncalled - set(UNCALLED_ALLOWED))
    assert not unexpected, "defined but used by no code outside tests: " + ", ".join(unexpected)
