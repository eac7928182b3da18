"""Every name a module of the package loads must be defined somewhere, and
every name it defines must be used somewhere.

A name used but never imported or bound (say a constructor matched in a
``case`` pattern but missing from the imports) only fails when that line runs.
This scan finds such names statically: a loaded name must be a global of the
imported module, a builtin, or bound somewhere in the same file.  The second
scan finds the opposite: a module-level function, class or constant that no
code of the project loads or imports.
"""

import ast
import builtins
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "izf"
USERS = ("src", "tests", "scripts", "perfbench")  # the code that may use a name of the package


def _bound_names(tree: ast.AST) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            out.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            out.add(node.rest)
    return out


def test_every_loaded_name_is_defined():
    undefined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(f"izf.{path.stem}" if path.stem != "__init__" else "izf")
        known = set(vars(module)) | set(dir(builtins)) | _bound_names(tree)
        # Class patterns in ``case`` clauses are Name loads too, so they are checked.
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in known:
                undefined.append(f"{path.name}:{node.lineno} {node.id}")
    assert undefined == []


def _defines(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _uses(tree: ast.Module) -> set[str]:
    """The names a file loads, reads as an attribute or imports, outside the
    statement that defines them (a recursive call is no use)."""
    out: set[str] = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
        out |= names.difference(_defines(stmt))
    return out


def test_every_module_level_name_is_used():
    used: set[str] = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}:{stmt.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in _defines(stmt)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert unused == []
