"""Every name a module of the package loads must be defined somewhere.

A name used but never imported or bound (say a constructor matched in a
``case`` pattern but missing from the imports) only fails when that line runs.
This scan finds such names statically: a loaded name must be a global of the
imported module, a builtin, or bound somewhere in the same file.
"""

import ast
import builtins
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "izf"


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
