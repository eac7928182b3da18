"""Every name a module of the package loads must be defined somewhere, and
every name it defines must be used somewhere, by more than tests.

A name used but never imported or bound (say a constructor matched in a
``case`` pattern but missing from the imports) only fails when that line runs.
This scan finds such names statically: a loaded name must be a global of the
imported module, a builtin, or bound somewhere in the same file.  The second
scan finds the opposite: a module-level function, class or constant that no
code of the project loads or imports.  The third holds the public names (no
leading underscore) to a higher bar: each must be used by the package, the
scripts or the benchmark, or imported by ``tests/test_acceptance.py`` (read
from its imports), unless ``KEPT`` gives the reason it stays.  A public name
only tests reach is a second way into a definition the kernel states once;
its tests go through the public path instead.  On failure the scan lists
each such name with the test files that use it, where the reroute is due.
The fourth scan reads the tests themselves: a name a test file imports
must be loaded in that file.
"""

import ast
import builtins
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "izf"
USERS = ("src", "tests", "scripts", "perfbench")  # the code that may use a name of the package
KERNEL_USERS = ("src", "scripts", "perfbench")  # the code whose use keeps a public name
IMPORT_SCAN_EXEMPT = ("test_acceptance.py",)  # the behaviour contract, which is never edited
KEPT = {  # public names only tests reach, each kept for the reason given
    "typecheck.canonical_form": (
        "the paper's canonical-forms lemma over proofs.CANONICAL, the oracle that the random metatheory"
        " and corpus reduction tests run on the value of every run that reaches one"
    ),
    "extraction.defining_formula": "the paper's elimination of function symbols, which the README advertises",
}


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


def _used_by(tops) -> dict[pathlib.Path, set[str]]:
    """The names each Python file under the given top-level folders uses."""
    return {
        path: _uses(ast.parse(path.read_text(encoding="utf-8")))
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _definitions():
    """(file, line, name) for each module-level name of the package."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defines(stmt):
                yield path, stmt.lineno, name


def test_every_module_level_name_is_used():
    used = set().union(*_used_by(USERS).values())
    unused = [
        f"{path.name}:{line} {name}"
        for path, line, name in _definitions()
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert unused == []


def _acceptance_imports() -> set[str]:
    """The names the acceptance criteria import from the package."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "izf"
        for alias in node.names
    }


def test_every_public_name_has_a_user_beyond_the_tests():
    used = set().union(*_used_by(KERNEL_USERS).values(), _acceptance_imports())
    tests = _used_by(("tests",))
    defined = {f"{path.stem}.{name}" for path, _, name in _definitions()}
    assert set(KEPT) <= defined, "a KEPT entry names nothing the package defines"
    flagged = [
        f"{path.name}:{line} {name}, used by "
        + (", ".join(test.name for test, names in tests.items() if name in names) or "no test")
        for path, line, name in _definitions()
        if not name.startswith("_") and name not in used and f"{path.stem}.{name}" not in KEPT
    ]
    assert flagged == [], "\n".join(flagged)


def test_every_name_a_test_imports_is_loaded():
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name in IMPORT_SCAN_EXEMPT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in loaded
                ]
    assert unused == []
