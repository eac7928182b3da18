#!/usr/bin/env python3
"""Regenerate the golden substitution table, tests/subst_golden.json.

Usage: python scripts/subst_golden.py [--check]

Each case runs ``substitute`` or ``substitute_many`` on one tree.  The table
holds ``is`` when the result is the input object itself, and otherwise
``new <k> <repr>``: k is the number of nodes of the result that are nodes of
the input (subtrees kept as they are), then the exact ``repr`` of the
result.  The cases are:

* seeded ``tests/gens.py`` terms, formulas, proofs and their erasures, each
  with a term for a first-order variable, a variable for a variable, a
  variable for itself, a proof (annotated or erased, as the tree) for a
  hypothesis variable, and ``substitute_many`` over both namespaces at once.
  The replacements are drawn from the same names as the trees' binders, so
  many of them force a rename;
* hand-written capture cases: a replacement that mentions the binder names,
  two and three equal first-order binders of one node, sealed hypothesis
  binders (one branch of a case, a let, a lambda), a hypothesis binder free
  in a replacement, and both at once in proofs of both calculi.

With ``--check`` the table is compared instead of written, and the script
exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "subst_golden.json"
for _p in (ROOT / "src", ROOT / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from gens import rand_formula, rand_proof, rand_term  # noqa: E402
from izf.proof_ops import erase  # noqa: E402
from izf.proofs import (  # noqa: E402
    App,
    AppT,
    Case,
    EApp,
    ECase,
    ELamF,
    ELamP,
    ELet,
    EPropVar,
    ExIntro,
    Inl,
    LamF,
    LamP,
    Let,
    PairP,
    PropVar,
)
from izf.syntax import (  # noqa: E402
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Mem,
    Omega,
    Or,
    PairT,
    Repl,
    Sep,
    Var,
    map_children,
    substitute,
    substitute_many,
)

GEN_SEEDS = range(100)
_VARS = ("a", "b", "c", "d", "e")
_PVARS = ("x", "y", "z")


def _gens():
    for seed in GEN_SEEDS:
        rng = random.Random(seed)
        proof = rand_proof(rng, 3)
        trees = (
            ("term", rand_term(rng, 3)),
            ("formula", rand_formula(rng, 3)),
            ("proof", proof),
            ("erased", erase(proof)),
        )
        s = rand_term(rng, 2)
        p = rand_proof(rng, 2)
        a, b, c = rng.sample(_VARS, 3)
        h, k = rng.sample(_PVARS, 2)
        for name, tree in trees:
            q = erase(p) if name == "erased" else p
            pv = (EPropVar if name == "erased" else PropVar)(k)
            cid = f"gens/{seed}/{name}"
            yield f"{cid}/term", tree, "substitute", (a, s)
            yield f"{cid}/rename", tree, "substitute", (a, Var(b))
            yield f"{cid}/self", tree, "substitute", (a, Var(a))
            yield f"{cid}/hyp", tree, "substitute", (h, q)
            yield f"{cid}/many", tree, "substitute_many", ({a: s, b: Var(c), c: Var(a)},)
            yield f"{cid}/both", tree, "substitute_many", ({a: s, h: q, k: pv},)


_B = Bottom()
_AB = Mem(Var("a"), Var("b"))
_HAND = (
    # a replacement that mentions the binder names
    (Forall("b", _AB), "substitute", ("a", Var("b"))),
    (Exists("b", And(_AB, Forall("b1", Eq(Var("b"), Var("b1"))))), "substitute", ("a", PairT(Var("b"), Var("b1")))),
    (Forall("b", _AB), "substitute_many", ({"b": Empty(), "a": Var("b")},)),
    (LamF("b", AppT(PropVar("f"), Var("a"))), "substitute", ("a", Var("b"))),
    (ELamF("b", ELamF("b1", EApp(EPropVar("f"), EPropVar("a")))), "substitute", ("a", Var("b"))),
    (LamP("y", _B, App(PropVar("x"), PropVar("y"))), "substitute", ("x", PropVar("y"))),
    (ELamP("y", EApp(EPropVar("x"), EPropVar("y"))), "substitute", ("x", EApp(EPropVar("y"), EPropVar("y1")))),
    (LamP("y", Mem(Var("a"), Var("a")), PropVar("x")), "substitute_many", ({"a": Var("y"), "x": PropVar("y")},)),
    # two or three equal first-order binders: the inner one is renamed first
    (Sep("b", ("b",), Mem(Var("b"), Var("a")), Var("a"), (Var("a"),)), "substitute", ("a", PairT(Var("b"), Var("b1")))),
    (Sep("b", ("c", "b"), Eq(Var("b"), Var("c")), Var("b"), (Var("b"), Var("a"))), "substitute", ("a", Var("b"))),
    (Repl("b", "b", ("b",), Or(_AB, Eq(Var("b"), Var("a"))), Omega(), (Var("a"),)), "substitute", ("a", Var("b"))),
    (Repl("b", "c", ("b",), Eq(Var("b"), Var("c")), Var("a"), (Var("a"),)), "substitute_many", ({"a": Var("c"), "c": Var("b")},)),
    # sealed hypothesis binders
    (LamP("x", _B, App(PropVar("x"), PropVar("y"))), "substitute", ("x", PropVar("z"))),
    (
        Case(PropVar("x"), "x", _B, PropVar("x"), "y", _B, PropVar("x")),
        "substitute",
        ("x", PropVar("y")),
    ),
    (ECase(EPropVar("x"), "x", EPropVar("x"), "y", EPropVar("x")), "substitute", ("x", EPropVar("y"))),
    (
        Let("a", "x", Eq(Var("a"), Var("b")), PropVar("x"), PairP(PropVar("x"), AppT(PropVar("y"), Var("b")))),
        "substitute_many",
        ({"x": PropVar("y"), "y": PropVar("x"), "b": Var("a")},),
    ),
    (ELet("a", "x", EPropVar("x"), EApp(EPropVar("x"), EPropVar("y"))), "substitute", ("y", EPropVar("x"))),
    (
        Inl(ExIntro(Var("a"), PropVar("x"), Exists("b", _AB)), Or(_AB, _B)),
        "substitute_many",
        ({"a": Var("b"), "x": PropVar("x")},),
    ),
)


def cases():
    """Yield (case id, tree, entry point name, its other arguments)."""
    yield from _gens()
    for k, (tree, fn, args) in enumerate(_HAND):
        yield f"hand/{k}", tree, fn, args


def _nodes(x) -> list:
    out = [x]
    map_children(x, lambda c: out.extend(_nodes(c)) or c)
    return out


def outcome(tree, fn: str, args: tuple) -> str:
    got = (substitute if fn == "substitute" else substitute_many)(tree, *args)
    if got is tree:
        return "is"
    kept = {id(n) for n in _nodes(tree)}
    return f"new {sum(id(n) in kept for n in _nodes(got))} {got!r}"


def table() -> dict[str, str]:
    return {cid: outcome(tree, fn, args) for cid, tree, fn, args in cases()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the table instead of writing it")
    args = ap.parse_args()
    got = table()
    if args.check:
        want = json.loads(TABLE.read_text("utf-8"))
        diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        for k in diff:
            print(f"{k}: want {want.get(k)!r} got {got.get(k)!r}")
        sys.exit(1 if diff else 0)
    TABLE.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} ({len(got)} cases)")


if __name__ == "__main__":
    main()
