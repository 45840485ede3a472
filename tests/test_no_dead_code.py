"""No unused imports, no library function, class or public method that
nothing calls, and no defaulted library parameter that no call passes.

A static check by name with the standard library's ast module.  A name
counts as used where it appears as a name, an attribute, an imported name,
or a string constant that is exactly that name (a quoted annotation, or the
benchmark tracer's lookup of a function by module and attribute name).  Being
by name, it misses a dead definition whose name some other code uses.
A class's constructor is a definition of its own, "Class.__init__", used
only where code outside the class calls the class by name, so a class that
only tests build, or that only its own methods build, is flagged.
Parameters are checked per call instead: a call by the function's name (a
class's name for its __init__) passes a parameter by keyword, by position, or
through * or **.
An allowance is stale, and fails the check, once its definition is gone or
code outside tests uses it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "outerspace"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# Library definitions that only tests and documents use, each with its reason.
UNCALLED_ALLOWED = {
    ("graph_map", "is_legal"): "acceptance criterion 8 finds legal loops with it",
    ("graph_map", "GraphMap.map_path"): "acceptance criterion 8 iterates legal loops with it",
}

# Defaulted library parameters that only tests pass, each with its reason.
UNPASSED_ALLOWED: Dict[Tuple[str, str], str] = {}


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
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "imports never used:\n" + "\n".join(unused)


def _units(tree: ast.Module) -> Iterable[Tuple[Tuple[str, ...], ast.AST]]:
    """(owner, node) for each top-level statement, a class split into its
    header and its members; owner is the defined name, or class and member."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            name = getattr(stmt, "name", "")
            yield (name,), stmt
            continue
        header = stmt.bases + stmt.keywords + stmt.decorator_list
        yield (stmt.name,), ast.Module(body=header, type_ignores=[])
        for member in stmt.body:
            yield (stmt.name, getattr(member, "name", "")), member


def _called(node: ast.AST) -> Set[str]:
    """Names that the calls in node call: f(...) and x.f(...) both call f."""
    return {getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
            for sub in ast.walk(node) if isinstance(sub, ast.Call)}


def _uncalled() -> Set[Tuple[str, str]]:
    """(module, name) of each library definition that no code outside tests
    uses: top-level functions and classes, class constructors as
    "Class.__init__", and public methods as "Class.method"."""
    uses: List[Tuple[str, Tuple[str, ...], Set[str], Set[str]]] = []
    library_defs = []
    for path in _sources(CALLERS):
        tree = _parse(path)
        for owner, node in _units(tree):
            uses.append((path.stem, owner, _names([node], attributes=True), _called(node)))
        if path.parent != LIBRARY:
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                library_defs.append((path.stem, (stmt.name,)))
            if isinstance(stmt, ast.ClassDef):
                library_defs.append((path.stem, (stmt.name, "__init__")))
                library_defs.extend(
                    (path.stem, (stmt.name, m.name)) for m in stmt.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                )

    def used(module: str, owner: Tuple[str, ...]) -> bool:
        # A use inside the definition itself does not count, nor a call of a
        # class inside that class.
        if owner[-1] == "__init__":
            return any(owner[0] in called and not (m == module and o[0] == owner[0])
                       for m, o, _, called in uses)
        return any(owner[-1] in names and not (m == module and o[: len(owner)] == owner)
                   for m, o, names, _ in uses)

    return {(module, ".".join(owner)) for module, owner in library_defs
            if not used(module, owner)}


def test_every_library_definition_is_used():
    unexpected = sorted(f"{m}.{n}" for m, n in _uncalled() - set(UNCALLED_ALLOWED))
    assert not unexpected, "defined but used by no code outside tests: " + ", ".join(unexpected)


def test_no_stale_allowance():
    stale = sorted(f"{m}.{n}" for m, n in set(UNCALLED_ALLOWED) - _uncalled())
    assert not stale, "allowed as uncalled but gone or used outside tests: " + ", ".join(stale)


def _defaulted(fn: ast.FunctionDef) -> Iterable[Tuple[str, int]]:
    """(name, position) of each defaulted parameter; keyword-only ones have
    no position and are given -1."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, -1


def _passes(call: ast.Call, name: str, position: int) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):  # None: a ** argument
        return True
    if position < 0:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _unpassed() -> Set[Tuple[str, str]]:
    """(module, "function.parameter") of each defaulted parameter of a
    library function or method that no call outside tests passes; a method's
    position counts self or cls, which a call does not pass."""
    calls: Dict[str, List[ast.Call]] = {}
    for path in _sources(CALLERS):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = set()
    for path in _sources([LIBRARY]):
        for qualname, callee, fn, skip in _library_functions(_parse(path)):
            for param, position in _defaulted(fn):
                if position >= 0:
                    position -= skip
                if not any(_passes(c, param, position) for c in calls.get(callee, ())):
                    out.add((path.stem, f"{qualname}.{param}"))
    return out


def _library_functions(tree: ast.Module) -> Iterable[Tuple[str, str, ast.FunctionDef, int]]:
    """(qualified name, name its calls use, definition, leading parameters a
    call does not pass) of each top-level function and method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt.name, stmt, 0
        elif isinstance(stmt, ast.ClassDef):
            for m in stmt.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(getattr(d, "id", "") == "staticmethod" for d in m.decorator_list)
                    callee = stmt.name if m.name == "__init__" else m.name
                    yield f"{stmt.name}.{m.name}", callee, m, 0 if static else 1


def test_every_defaulted_parameter_is_passed():
    unexpected = sorted(f"{m}.{n}" for m, n in _unpassed() - set(UNPASSED_ALLOWED))
    assert not unexpected, "defaulted but passed by no call outside tests: " + ", ".join(unexpected)


def test_no_stale_parameter_allowance():
    stale = sorted(f"{m}.{n}" for m, n in set(UNPASSED_ALLOWED) - _unpassed())
    assert not stale, "allowed as unpassed but gone or passed outside tests: " + ", ".join(stale)
