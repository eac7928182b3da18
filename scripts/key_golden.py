#!/usr/bin/env python3
"""Regenerate the golden keys-and-facts table, tests/key_golden.json.

Usage: python scripts/key_golden.py [--check]

Each case is one tree, and the table holds, for it:

* ``names``: the four name sets of its binding facts (``syntax._names``):
  free hypothesis names, free first-order names, first-order binder names
  and hypothesis binder names, each sorted;
* ``alpha``: ``alpha_eq`` of the tree against a fresh copy, an alpha-variant
  (every binder renamed to a new name) and a one-node mutation, first on the
  unkeyed tree and again after it was keyed;
* ``keys``: the exact ``repr`` of ``to_nameless`` under a seeded pair of
  stacks (first-order and hypothesis names) on the unkeyed tree, under
  empty stacks, and under the seeded stacks again, now reading kept keys.
  ``realizability.label_key`` sorts labels by the ``repr`` of a key, so the
  keys are compared byte for byte.

The trees are seeded ``tests/gens.py`` terms, formulas, proofs, their
erasures and axiom identifiers, plus hand-written ones that the generators
never build: replacement terms and identifiers, equal binders of one node,
parameters, every constant and a let whose annotation its binder covers.

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
TABLE = ROOT / "tests" / "key_golden.json"
for _p in (ROOT / "src", ROOT / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from gens import rand_formula, rand_proof, rand_term  # noqa: E402
from izf import axioms as ax  # noqa: E402
from izf.proof_ops import erase  # noqa: E402
from izf.proofs import (  # noqa: E402
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    ECase,
    ELet,
    EPropVar,
    ErasedProof,
    LamF,
    LamP,
    Let,
    PairP,
    PropVar,
)
from izf.syntax import (  # noqa: E402
    FO_BINDER,
    FO_BINDERS,
    FO_VAR,
    HYP,
    HYP_BINDER,
    SHAPES,
    TERMS,
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Inac,
    Mem,
    MemI,
    NameRef,
    Node,
    NwfConst,
    Omega,
    PairT,
    Repl,
    Sep,
    Term,
    UnionT,
    Var,
    _names,
    alpha_eq,
    map_children,
    to_nameless,
)

GEN_SEEDS = range(420)
_VARS = ("a", "b", "c", "d", "e")
_PVARS = ("x", "y", "z")


def _rand_axiom(rng: random.Random):
    """An axiom identifier: a schema with a seeded body, or a constant."""
    z, p, q = rng.sample(_VARS, 3)
    kind = rng.randrange(5)
    if kind == 0:
        return ax.SepAx(z, (p,), rand_formula(rng, 2, (z, p)))
    if kind == 1:
        return ax.IndAx(z, (p, q), rand_formula(rng, 2, (z, p, q)))
    if kind == 2:
        return ax.ReplAx(z, p, (q,), rand_formula(rng, 2, (z, p, q)))
    if kind == 3:
        return ax.InacAx(rng.randint(1, 3))
    return rng.choice([ax.EmptyAx, ax.PairAx, ax.InfAx, ax.UnionAx, ax.PowerAx, ax.InAx, ax.EqAx, ax.NwfAx, ax.Sep0Ax])()


def _gens():
    for seed in GEN_SEEDS:
        rng = random.Random(seed)
        proof = rand_proof(rng, 3)
        yield f"gens/{seed}/term", rand_term(rng, 3)
        yield f"gens/{seed}/formula", rand_formula(rng, 3)
        yield f"gens/{seed}/proof", proof
        yield f"gens/{seed}/erased", erase(proof)
        yield f"gens/{seed}/axiom", _rand_axiom(rng)


_AB = Mem(Var("a"), Var("b"))
_HAND = (
    Repl("b", "b", ("b",), Eq(Var("b"), Var("a")), Omega(), (Var("a"),)),
    Repl("b", "c", ("d",), And(_AB, MemI(Var("c"), Var("d"))), Var("d"), (Var("c"),)),
    Sep("b", ("c", "b"), Eq(Var("b"), Var("c")), Var("b"), (Var("b"), Var("a"))),
    Sep("a", (), Forall("a", Eq(Var("a"), Var("b"))), Inac(3), ()),
    Forall("a", Forall("a", Eq(Var("a"), Var("a")))),
    Exists("a", Imp(Forall("b", _AB), Exists("c", Eq(Var("c"), Var("a"))))),
    PairT(NwfConst("C"), NwfConst("D")),
    UnionT(PairT(NameRef(("n", 1)), NameRef("m"))),
    ax.ReplAx("a", "a", ("b",), Eq(Var("a"), Var("b"))),
    ax.SepAx("a", ("a", "b"), _AB),
    ax.IndAx("b", (), Forall("a", _AB)),
    Let("a", "x", Eq(Var("a"), Var("b")), PropVar("x"), PairP(PropVar("x"), AppT(PropVar("y"), Var("a")))),
    ELet("a", "x", EPropVar("x"), ECase(EPropVar("x"), "x", EPropVar("x"), "y", EPropVar("z"))),
    Case(PropVar("x"), "x", Bottom(), PropVar("x"), "y", Bottom(), LamP("x", Bottom(), App(PropVar("x"), PropVar("y")))),
    LamF("a", AxRep(ax.SepAx("z", ("a",), Eq(Var("z"), Var("a"))), Var("a"), (Var("a"),), PropVar("h"))),
    LamF("b", AxProp(ax.ReplAx("c", "d", ("b",), Eq(Var("d"), Var("b"))), Var("b"), (Empty(), Var("b")), PropVar("h"))),
)


def cases():
    """Yield (case id, tree)."""
    yield from _gens()
    for k, tree in enumerate(_HAND):
        yield f"hand/{k}", tree


def _copy(x):
    """A copy of x that shares no node with it."""
    x = map_children(x, _copy)
    return type(x)(*(getattr(x, f.name) for f in SHAPES[type(x)].fields))


def _variant(x, fo: dict[str, str], hyp: dict[str, str], fresh: list[int]):
    """x with every binder renamed to a name of its own, occurrences
    following: ``fo`` and ``hyp`` map the binders in scope to their new
    names.  Written over ``SHAPES`` directly, without the kernel's
    substitution or keys."""
    fields = SHAPES[type(x)].fields
    new: dict[str, object] = {}
    for f in fields:
        v = getattr(x, f.name)
        if f.kind is FO_VAR:
            new[f.name] = fo.get(v, v)
        elif f.kind is HYP:
            new[f.name] = hyp.get(v, v)
        elif f.kind in (FO_BINDER, FO_BINDERS, HYP_BINDER):
            names = v if f.kind is FO_BINDERS else (v,)
            renamed = []
            for _ in names:
                fresh[0] += 1
                renamed.append(f"{'q' if f.kind is HYP_BINDER else 'r'}{fresh[0]}")
            new[f.name] = tuple(renamed) if f.kind is FO_BINDERS else renamed[0]
    for f in fields:
        v = getattr(x, f.name)
        if f.kind is TERMS:
            new[f.name] = tuple(_variant(u, fo, hyp, fresh) for u in v)
        elif f.name not in new and isinstance(v, Node):
            inner, hinner = dict(fo), dict(hyp)
            for b in f.under:  # in order, so a later equal binder shadows an earlier one
                old, now = getattr(x, b), new[b]
                env = hinner if b in f.hyp_under else inner
                env.update(zip(old, now) if isinstance(old, tuple) else ((old, now),))
            new[f.name] = _variant(v, inner, hinner, fresh)
        elif f.name not in new:
            new[f.name] = v
    return type(x)(*(new[f.name] for f in fields))


def _other(x):
    """A node of x's sort that differs from x."""
    if isinstance(x, Var):
        return Var("a" if x.name != "a" else "b")
    if isinstance(x, Term):
        return Omega() if isinstance(x, Empty) else Empty()
    if isinstance(x, Formula):
        return Eq(Empty(), Empty()) if isinstance(x, Bottom) else Bottom()
    if isinstance(x, ax.AxiomId):
        return ax.PairAx() if isinstance(x, ax.EmptyAx) else ax.EmptyAx()
    if isinstance(x, ErasedProof):
        return EPropVar("w")
    return PropVar("w")


def _mutant(x, k: int):
    """x with its k-th node in preorder (children in field order) replaced."""
    seen = [-1]

    def go(y):
        seen[0] += 1
        return _other(y) if seen[0] == k else map_children(y, go)

    return go(x)


def _nodes(x) -> list:
    out = [x]
    map_children(x, lambda c: out.extend(_nodes(c)) or c)
    return out


def record(cid: str, tree) -> dict:
    rng = random.Random(cid)
    stack = tuple(rng.choice(_VARS) for _ in range(rng.randrange(4)))
    hstack = tuple(rng.choice(_PVARS) for _ in range(rng.randrange(3)))
    others = (_copy(tree), _variant(tree, {}, {}, [0]), _mutant(tree, rng.randrange(len(_nodes(tree)))))
    out = {"names": [sorted(s) for s in _names(_copy(tree))[:4]]}
    before = [alpha_eq(tree, y) for y in others]
    keys = [repr(to_nameless(tree, stack, hstack)), repr(to_nameless(tree)), repr(to_nameless(tree, stack, hstack))]
    out["alpha"] = before + [alpha_eq(tree, y) for y in others]
    out["keys"] = [f"{stack} {hstack} {keys[0]}", keys[1], keys[2]]
    return out


def table() -> dict[str, dict]:
    return {cid: record(cid, tree) for cid, tree in cases()}


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
